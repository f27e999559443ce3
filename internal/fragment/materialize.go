package fragment

import (
	"context"
	"fmt"

	"paradise/internal/engine"
	"paradise/internal/schema"
)

// This file holds the package's row surfaces: Execute, the materializing
// consumer of a chain, pivots the final stage's batches into a Result, and
// a stage source refuses engine.Source's materializing Relation. The stage
// hand-off itself (execute.go) never builds rows.

// Relation satisfies engine.Source. A stage output is served only as
// column batches (stageSource.OpenColScan) and is never materialized.
func (s *stageSource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	if name != s.name {
		return nil, nil, s.unknown(name)
	}
	return nil, nil, fmt.Errorf("%w: stage output %q is served as column batches only", ErrFragment, s.name)
}

// Execution is the outcome of running a whole plan.
type Execution struct {
	Result *engine.Result
	Stages []StageResult
}

// BytesShipped sums the bytes crossing node boundaries (every stage output
// travels one hop up the ladder).
func (e *Execution) BytesShipped() int {
	total := 0
	for _, s := range e.Stages {
		total += s.Bytes
	}
	return total
}

// Execute runs the plan bottom-up against the base source as one chained
// batch pipeline (see OpenChain). The final result is materialized for the
// caller, and per-stage row/byte accounting is collected from the streamed
// batches. Execution is semantically equivalent to evaluating the original
// query directly (the property tests in this package assert exactly that).
func Execute(ctx context.Context, plan *Plan, base engine.Source, opts ...Option) (*Execution, error) {
	chain, err := OpenChain(ctx, plan, base, opts...)
	if err != nil {
		return nil, err
	}
	rows, err := schema.DrainIterator(schema.PivotRows(chain.Iterator()))
	if err != nil {
		chain.Close()
		return nil, err
	}
	// Fail if the drain-close hit a row the materialized baseline would
	// have choked on.
	if err := chain.Close(); err != nil {
		return nil, err
	}
	return &Execution{
		Result: &engine.Result{Schema: chain.Schema(), Rows: rows},
		Stages: chain.Stages(),
	}, nil
}
