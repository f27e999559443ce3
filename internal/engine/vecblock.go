package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file wires whole query-block shapes onto the columnar scan when the
// block's work can run over vectors: plain and expression projections
// (vecproject.go), DISTINCT over plain columns (vecDistinctIter below) and
// grouped aggregation (vecgroup.go). All paths share the compiled scan
// (vecscan.go) and decline — ok=false, no error — whenever any piece of
// the block needs the row-at-a-time machinery, so the row path remains the
// single source of truth for full SQL semantics.
//
// A streaming vectorized block ends in a vecHead: the next fragment stage
// pulls its batches as they are (NextBatch), and only a row consumer pays
// the pivot (Next).

// openVecBlock tries the vectorized whole-block paths for a single-table
// block. ok=false means the caller should compile the block on the row path.
func (e *Engine) openVecBlock(ctx context.Context, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, bool, error) {
	cs, ok := e.src.(ColScanner)
	if !ok {
		return nil, nil, false, nil
	}
	if blk.Agg != nil {
		return e.openVecGrouped(ctx, cs, s, blk)
	}
	if blk.Win != nil || blk.Sort != nil {
		return nil, nil, false, nil
	}
	if blk.Distinct != nil {
		return e.openVecDistinct(ctx, cs, s, blk)
	}
	return e.openVecProject(ctx, cs, s, blk)
}

// vecHead is the head of a streaming block compiled columnar, bound to
// ctx: NextBatch hands the block's batches over unpivoted (the next
// fragment stage's input), and Next pivots the same batches for row
// consumers. A consumer uses one of the two. It never serves an empty
// batch.
type vecHead struct {
	ctx      context.Context // nil when it can never be cancelled
	src      schema.ColIterator
	op       schema.ColIterator // the block's operator, under any LIMIT
	pivoting bool
}

// lender is an operator that can lend its output batches instead of
// handing them over: a lent batch, with its vectors and selection, is
// valid only until the next pull. A row consumer pivots each batch before
// pulling the next, so lending spares it the per-batch allocations.
type lender interface{ lend() }

func newVecHead(ctx context.Context, op schema.ColIterator, blk *plan.Block) *vecHead {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	h := &vecHead{ctx: ctx, src: op, op: op}
	if blk.Limit != nil {
		n := int(blk.Limit.N)
		if n < 0 {
			n = 0
		}
		h.src = &vecLimitIter{src: op, remaining: n}
	}
	return h
}

func (h *vecHead) NextBatch() (*schema.ColBatch, error) {
	if h.ctx != nil {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
	}
	return h.src.NextBatch()
}

func (h *vecHead) Next() (schema.Rows, error) {
	if !h.pivoting {
		h.pivoting = true
		if l, ok := h.op.(lender); ok {
			l.lend()
		}
	}
	cb, err := h.NextBatch()
	if err != nil || cb == nil {
		return nil, err
	}
	return cb.Rows(), nil
}

func (h *vecHead) Close() { h.src.Close() }

// vecLimitIter is limitIter over batches: the batch that reaches the limit
// is cut by selection, and the source is closed as soon as the limit is
// reached so upstream scans stop pulling.
type vecLimitIter struct {
	src       schema.ColIterator
	remaining int
}

func (l *vecLimitIter) NextBatch() (*schema.ColBatch, error) {
	if l.remaining <= 0 {
		l.src.Close()
		return nil, nil
	}
	cb, err := l.src.NextBatch()
	if err != nil || cb == nil {
		l.remaining = 0
		return nil, err
	}
	if n := cb.Len(); n < l.remaining {
		l.remaining -= n
		return cb, nil
	}
	out := *cb
	if cb.Sel != nil {
		out.Sel = cb.Sel[:l.remaining:l.remaining]
	} else {
		out.Sel = make([]int, l.remaining)
		for i := range out.Sel {
			out.Sel[i] = i
		}
	}
	l.remaining = 0
	l.src.Close()
	return &out, nil
}

func (l *vecLimitIter) Close() {
	l.remaining = 0
	l.src.Close()
}

// vecBlockScan compiles the scan half shared by the vectorized block paths:
// the table schema, the filter conjuncts and the pruned column set, fed into
// compileVecScan. ok=false when the scan itself cannot be vectorized.
func (e *Engine) vecBlockScan(s *plan.Scan, blk *plan.Block) (*vecScanPlan, *schema.Relation, bool) {
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, nil, false // let the row path surface the error
	}
	qual := s.Table
	if s.Alias != "" {
		qual = s.Alias
	}
	full := bindingFromRelation(rel, qual)

	filters := blk.FilterConds()
	conds := make([]sqlparser.Expr, 0, 1+len(filters))
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	conds = append(conds, filters...)

	p, ok := compileVecScan(rel, qual, full, conds, e.scanColumns(s, blk, full))
	if !ok {
		return nil, nil, false
	}
	return p, rel, true
}

// openVecDistinct compiles SELECT DISTINCT over plain columns of a single
// table: duplicates are eliminated on the column vectors, so only the unique
// rows are ever pivoted to row form. With few distinct values this skips
// almost all of the pivot work the row path pays before its distinctIter.
func (e *Engine) openVecDistinct(ctx context.Context, cs ColScanner, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, bool, error) {
	p, rel, ok := e.vecBlockScan(s, blk)
	if !ok {
		return nil, nil, false, nil
	}
	proj, err := buildProjector(blk.Items(), p.lb)
	if err != nil {
		return nil, nil, false, nil // row path reports the projection error
	}
	// Every output column must be a direct copy of a loaded column —
	// expressions in the select list mean per-row evaluation, which is what
	// the row path is for.
	srcIdx := make([]int, len(proj.cols))
	for i, c := range proj.cols {
		if c.starIdx < 0 {
			return nil, nil, false, nil
		}
		srcIdx[i] = c.starIdx
	}

	ci, err := cs.OpenColScan(ctx, s.Table, p.colScan(rel.Arity()))
	if err != nil {
		return nil, nil, false, err
	}
	d := &vecDistinctIter{
		src:    ci,
		ex:     newVecExec(p),
		srcIdx: srcIdx,
		orel:   proj.rel,
		seen:   make(map[string]bool),
	}
	return proj.rel, newVecHead(ctx, d, blk), true, nil
}

// vecDistinctIter filters batches with the compiled kernels and
// deduplicates the survivors by their canonical group key built straight
// from the column vectors: a first occurrence stays selected, so the
// output batch is the input's vectors under a narrower selection.
type vecDistinctIter struct {
	src    schema.ColIterator
	ex     *vecExec
	srcIdx []int // load-layout position of each output column
	orel   *schema.Relation
	seen   map[string]bool
	kbuf   []byte
}

func (d *vecDistinctIter) NextBatch() (*schema.ColBatch, error) {
	for {
		cb, err := d.src.NextBatch()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return nil, nil
		}
		sel, err := d.ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		var keep []int
		unique := func(i int) {
			d.kbuf = d.kbuf[:0]
			for _, c := range d.srcIdx {
				d.kbuf = cb.Vecs[c].AppendGroupKey(d.kbuf, i)
			}
			if d.seen[string(d.kbuf)] {
				return
			}
			d.seen[string(d.kbuf)] = true
			keep = append(keep, i)
		}
		if sel == nil { // nil selection means every physical row is live
			for i := 0; i < cb.N; i++ {
				unique(i)
			}
		} else {
			for _, i := range sel {
				unique(i)
			}
		}
		if len(keep) == 0 {
			continue
		}
		vecs := make([]schema.ColVec, len(d.srcIdx))
		for k, c := range d.srcIdx {
			vecs[k] = cb.Vecs[c]
		}
		return &schema.ColBatch{Rel: d.orel, Vecs: vecs, N: cb.N, Sel: keep}, nil
	}
}

func (d *vecDistinctIter) Close() { d.src.Close() }
