package fragment

import (
	"context"
	"errors"
	"fmt"

	"paradise/internal/engine"
	"paradise/internal/schema"
)

// StageResult records one executed fragment for accounting: the rows it
// produced and their simulated wire size (what ships to the next node).
type StageResult struct {
	Fragment *Fragment
	Rows     int
	Bytes    int
}

// stageErr marks an error already attributed to a fragment stage so outer
// stages do not re-wrap it as it propagates up the iterator chain.
type stageErr struct{ err error }

func (e *stageErr) Error() string { return e.err.Error() }
func (e *stageErr) Unwrap() error { return e.err }

func wrapStage(f *Fragment, err error) error {
	var se *stageErr
	if errors.As(err, &se) {
		return err
	}
	return &stageErr{err: fmt.Errorf("fragment: stage %d (%s): %w", f.Stage, f.Description, err)}
}

// stageIter wraps one fragment's output pipeline: it counts rows and wire
// bytes per batch for the stage accounting, and attributes errors to its
// stage. The output stays columnar (the stage hand-off contract), so a
// batch is counted with ColBatch.Len and ColBatch.WireSize, summed per
// vector — byte-identical to the row sum. Close drains the remainder
// first — the producing node ships its whole output up the chain
// regardless of how much the consumer reads, so per-stage stats match the
// fully materialized baseline exactly even when a later stage stops early
// (LIMIT).
type stageIter struct {
	src    schema.ColIterator
	f      *Fragment
	rows   int
	bytes  int
	closed bool
	err    error // runtime error surfaced while draining on Close
}

func (s *stageIter) NextBatch() (*schema.ColBatch, error) {
	cb, err := s.src.NextBatch()
	if err != nil {
		return nil, wrapStage(s.f, err)
	}
	s.count(cb)
	return cb, nil
}

func (s *stageIter) count(cb *schema.ColBatch) {
	if cb != nil {
		s.rows += cb.Len()
		s.bytes += cb.WireSize()
	}
}

func (s *stageIter) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for {
		cb, err := s.src.NextBatch()
		if err != nil {
			// The baseline would have evaluated this row and failed the
			// whole execution: record the error for Execute to surface.
			s.err = wrapStage(s.f, err)
			break
		}
		if cb == nil {
			break
		}
		s.count(cb)
	}
	s.src.Close()
}

// stageSource serves the previous stage's output under its relation name
// as a columnar source (engine.ColScanner), so the next stage runs the
// filter kernels and vectorized operators straight over the upstream
// batches. It serves nothing else: the fragmenter keeps every join inside
// one stage, so a stage above the first reads only its upstream output.
// The stage output is one-shot: fragment plans read each intermediate
// exactly once.
type stageSource struct {
	name     string
	rel      *schema.Relation
	it       *stageIter
	consumed bool
}

// unknown is the error for any relation other than the stage output.
func (s *stageSource) unknown(name string) error {
	return fmt.Errorf("%w: a stage above the first reads only stage output %q, not %q", ErrFragment, s.name, name)
}

func (s *stageSource) RelationSchema(name string) (*schema.Relation, error) {
	if name != s.name {
		return nil, s.unknown(name)
	}
	return s.rel, nil
}

// OpenColScan serves the stage output with the requested projection; the
// pruning predicate is a hint the consumer's kernels re-check, so it is
// not applied here.
func (s *stageSource) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	if name != s.name {
		return nil, s.unknown(name)
	}
	if s.consumed {
		return nil, fmt.Errorf("%w: stage output %q read twice", ErrFragment, s.name)
	}
	s.consumed = true
	if sc.Columns == nil {
		return s.it, nil
	}
	return &stageCols{src: s.it, rel: s.rel.Project(sc.Columns), cols: sc.Columns}, nil
}

// OpenColMorsels shares the stage output among the consumer's workers:
// pulls (and so the upstream stage and its accounting) run one at a time.
func (s *stageSource) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	it, err := s.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return schema.ShareColIterator(it), nil
}

// stageCols projects stage batches by picking vectors: no values move,
// and the selection carries over.
type stageCols struct {
	src  schema.ColIterator
	rel  *schema.Relation
	cols []int
}

func (p *stageCols) NextBatch() (*schema.ColBatch, error) {
	cb, err := p.src.NextBatch()
	if err != nil || cb == nil {
		return nil, err
	}
	vecs := make([]schema.ColVec, len(p.cols))
	for k, c := range p.cols {
		vecs[k] = cb.Vecs[c]
	}
	return &schema.ColBatch{Rel: p.rel, Vecs: vecs, N: cb.N, Sel: cb.Sel}, nil
}

func (p *stageCols) Close() { p.src.Close() }

// Option configures how a fragment plan executes.
type Option func(*execConfig)

type execConfig struct{ par int }

// WithParallelism sets the number of worker goroutines each stage's engine
// pipeline may use (morsel-driven, see the engine package): n <= 0 means
// runtime.GOMAXPROCS(0), 1 (the default) keeps execution serial. A stage
// whose block runs on the morsel path reads its input through a shared
// columnar morsel cursor, so the upstream accounting accrues under that
// cursor's lock — batch sums are order-independent, making a parallel
// chain's accounting bit-identical to the serial chain's.
func WithParallelism(n int) Option {
	return func(c *execConfig) { c.par = n }
}

// Chain is an opened fragment plan: the stages wired into one lazy batch
// pipeline whose final iterator the caller pulls. Stages hand off column
// batches (schema.ColIterator): each fragment's output feeds the next
// stage's columnar scan unpivoted, so no intermediate relation is
// materialized in full (memory is bounded by batch size plus any pipeline
// breakers inside a stage) and no stage boundary builds rows. Per-stage
// row/byte accounting accrues as batches flow and is finalized by Close,
// which drains every stage — the accounting of a fully drained chain
// matches the materialized baseline exactly even when the consumer stopped
// early (LIMIT, cursor Close).
type Chain struct {
	rel    *schema.Relation
	stages []*stageIter
	closed bool
}

// OpenChain wires the plan's fragments into one lazy pipeline over the base
// source, bound to ctx (cancellation is checked per batch at every scan).
// The caller pulls Iterator and must Close the chain; Close is idempotent.
func OpenChain(ctx context.Context, plan *Plan, base engine.Source, opts ...Option) (*Chain, error) {
	if len(plan.Fragments) == 0 {
		return nil, fmt.Errorf("%w: empty plan", ErrFragment)
	}
	cfg := execConfig{par: 1}
	for _, o := range opts {
		o(&cfg)
	}

	var src engine.Source = base
	stages := make([]*stageIter, 0, len(plan.Fragments))
	var rel *schema.Relation
	for _, f := range plan.Fragments {
		stageRel, it, err := engine.New(src).WithParallelism(cfg.par).OpenBatches(ctx, f.Root)
		if err != nil {
			// Abandon the chain. Open's own cleanup may already have
			// closed (and thereby drained) upstream stages; the stats are
			// discarded with the error, so only release what remains.
			for _, s := range stages {
				s.src.Close()
			}
			return nil, wrapStage(f, err)
		}
		rel = stageRel.Clone(f.Output)
		st := &stageIter{src: it, f: f}
		stages = append(stages, st)
		src = &stageSource{name: f.Output, rel: rel, it: st}
	}
	return &Chain{rel: rel, stages: stages}, nil
}

// Schema is the output relation of the final fragment.
func (c *Chain) Schema() *schema.Relation { return c.rel }

// Iterator is the final stage's batch iterator; consumers that need rows
// pivot its batches. Closing it closes (and drains) the whole chain; prefer
// Chain.Close, which also surfaces drain errors.
func (c *Chain) Iterator() schema.ColIterator { return c.stages[len(c.stages)-1] }

// Close drain-closes the whole chain so every stage's accounting is final
// even if the consumer stopped pulling early, and reports any error the
// drain hit — a row the materialized baseline would have choked on, or the
// context cancelled mid-drain. Close is idempotent; later calls return the
// first result.
func (c *Chain) Close() error {
	if !c.closed {
		c.closed = true
		for i := len(c.stages) - 1; i >= 0; i-- {
			c.stages[i].Close()
		}
	}
	for _, st := range c.stages {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// Stages returns the per-stage accounting. Only final after Close (or after
// the final iterator is exhausted and Close confirmed no drain error).
func (c *Chain) Stages() []StageResult {
	out := make([]StageResult, len(c.stages))
	for i, st := range c.stages {
		out[i] = StageResult{Fragment: st.f, Rows: st.rows, Bytes: st.bytes}
	}
	return out
}
