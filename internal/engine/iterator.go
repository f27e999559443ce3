package engine

import (
	"context"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file holds the streaming side of the engine: the row scan over any
// Source, and the volcano-style operators (filter, project, distinct,
// limit, join probe) that pull row batches through the pipeline built by
// Engine.Open. Sort, grouping and window evaluation are pipeline breakers
// and stay in their materialized form (sort.go, group.go, window.go).

// schemaSource is the optional capability to describe a relation without
// touching its rows. storage.Store and the fragment-stage source implement
// it.
type schemaSource interface {
	RelationSchema(name string) (*schema.Relation, error)
}

// RelationSchema returns the schema of a named relation, avoiding row
// materialization when the source supports it.
func RelationSchema(src Source, name string) (*schema.Relation, error) {
	if ss, ok := src.(schemaSource); ok {
		return ss.RelationSchema(name)
	}
	rel, _, err := src.Relation(name)
	return rel, err
}

// OpenScan opens a streaming row scan over any Source, bound to ctx. A
// ColScanner's column batches are pivoted (over storage a full-width batch
// carries the row view, so the pivot gathers references) and then filtered
// and projected; a scan without a filter pushes its projection into the
// column scan, so pruned columns are never pivoted. A source that only
// materializes is scanned in memory.
func OpenScan(ctx context.Context, src Source, name string, sc schema.Scan) (schema.RowIterator, error) {
	if cs, ok := src.(ColScanner); ok {
		cols := schema.ColScan{Predicate: sc.Predicate, BatchSize: sc.BatchSize}
		if sc.Filter == nil {
			cols.Columns, sc.Columns = sc.Columns, nil
		}
		ci, err := cs.OpenColScan(ctx, name, cols)
		if err != nil {
			return nil, err
		}
		return schema.FilterProject(schema.WithContext(ctx, schema.PivotRows(ci)), sc), nil
	}
	_, rows, err := src.Relation(name)
	if err != nil {
		return nil, err
	}
	return schema.FilterProject(schema.WithContext(ctx, schema.IterateRows(rows, sc.BatchSize)), sc), nil
}

// filterIter drops rows failing a predicate, for filters that could not be
// pushed into the scan (joins, subquery outputs).
type filterIter struct {
	src  schema.RowIterator
	env  *rowEnv
	cond sqlparser.Expr
	buf  schema.Rows
}

func (f *filterIter) Next() (schema.Rows, error) {
	for {
		in, err := f.src.Next()
		if err != nil || in == nil {
			return nil, err
		}
		out := f.buf[:0]
		for _, r := range in {
			f.env.row = r
			ok, err := truthy(f.env, f.cond)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			f.buf = out
			return out, nil
		}
	}
}

func (f *filterIter) Close() { f.src.Close() }

// projIter evaluates the select list per batch. An identity projection
// (SELECT * over the whole binding) passes batches through untouched.
type projIter struct {
	src schema.RowIterator
	p   *projector
	env *rowEnv
	buf schema.Rows
}

func (pi *projIter) Next() (schema.Rows, error) {
	in, err := pi.src.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if pi.p.identity {
		return in, nil
	}
	// One backing array per batch (rows may be retained downstream, so the
	// array is fresh each pull; only the header buffer is reused).
	nc := len(pi.p.cols)
	vals := make([]schema.Value, len(in)*nc)
	out := pi.buf[:0]
	for i, r := range in {
		pi.env.row = r
		orow := vals[i*nc : (i+1)*nc : (i+1)*nc]
		if err := pi.p.projectInto(pi.env, orow); err != nil {
			return nil, err
		}
		out = append(out, orow)
	}
	pi.buf = out
	return out, nil
}

func (pi *projIter) Close() { pi.src.Close() }

// SizeHint forwards the source hint: projection is 1:1.
func (pi *projIter) SizeHint() int {
	if h, ok := pi.src.(schema.SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}

// distinctIter streams DISTINCT: rows are emitted on first occurrence, so
// order is preserved and memory is bounded by the number of distinct rows.
type distinctIter struct {
	src  schema.RowIterator
	seen map[string]bool
	idx  []int
	buf  schema.Rows
	kbuf []byte
}

func (d *distinctIter) Next() (schema.Rows, error) {
	for {
		in, err := d.src.Next()
		if err != nil || in == nil {
			return nil, err
		}
		out := d.buf[:0]
		for _, r := range in {
			if d.idx == nil {
				d.idx = allIndexes(len(r))
			}
			// Canonical byte key in a reused scratch buffer: the map lookup
			// on string(kbuf) compiles allocation-free, a string is built
			// only when the row is new.
			d.kbuf = r.AppendGroupKey(d.kbuf[:0], d.idx)
			if !d.seen[string(d.kbuf)] {
				d.seen[string(d.kbuf)] = true
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			d.buf = out
			return out, nil
		}
	}
}

func (d *distinctIter) Close() { d.src.Close() }

// limitIter truncates the stream after n rows and closes its source as soon
// as the limit is reached, so upstream scans stop pulling — a LIMIT-n query
// over a large base relation reads O(n + batch) rows from storage.
type limitIter struct {
	src       schema.RowIterator
	remaining int
}

func (l *limitIter) Next() (schema.Rows, error) {
	if l.remaining <= 0 {
		l.src.Close()
		return nil, nil
	}
	in, err := l.src.Next()
	if err != nil || in == nil {
		l.remaining = 0
		return nil, err
	}
	if len(in) >= l.remaining {
		// Copy before closing: Close may drain upstream (stage accounting),
		// which reuses the batch buffer this slice aliases.
		out := make(schema.Rows, l.remaining)
		copy(out, in)
		l.remaining = 0
		l.src.Close()
		return out, nil
	}
	l.remaining -= len(in)
	return in, nil
}

func (l *limitIter) Close() {
	l.remaining = 0
	l.src.Close()
}

// hashJoinIter probes a materialized build side (the right input) with
// streamed left batches. Inner and left joins with at least one equi-key.
type hashJoinIter struct {
	left     schema.RowIterator
	rrows    schema.Rows
	index    map[string][]int
	eqL      []int
	rest     []sqlparser.Expr
	cb       *binding
	env      *rowEnv
	leftJoin bool
	nullR    schema.Row
	buf      schema.Rows
	kbuf     []byte
}

func (h *hashJoinIter) Next() (schema.Rows, error) {
	for {
		in, err := h.left.Next()
		if err != nil || in == nil {
			return nil, err
		}
		if h.env == nil {
			h.env = (&rowEnv{b: h.cb}).reuse()
		}
		out := h.buf[:0]
		for _, lr := range in {
			matched := false
			h.kbuf = lr.AppendGroupKey(h.kbuf[:0], h.eqL)
			for _, ri := range h.index[string(h.kbuf)] {
				combined := joinRow(lr, h.rrows[ri])
				ok, err := residualOK(h.env, combined, h.rest)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, combined)
					matched = true
				}
			}
			if !matched && h.leftJoin {
				out = append(out, joinRow(lr, h.nullR))
			}
		}
		if len(out) > 0 {
			h.buf = out
			return out, nil
		}
	}
}

func (h *hashJoinIter) Close() { h.left.Close() }

// loopJoinIter is the nested-loop fallback (and, with a nil condition, the
// cross join): the right side is materialized, the left side streams.
type loopJoinIter struct {
	left     schema.RowIterator
	rrows    schema.Rows
	on       sqlparser.Expr
	cb       *binding
	env      *rowEnv
	leftJoin bool
	nullR    schema.Row
	buf      schema.Rows
}

func (l *loopJoinIter) Next() (schema.Rows, error) {
	for {
		in, err := l.left.Next()
		if err != nil || in == nil {
			return nil, err
		}
		if l.env == nil {
			l.env = (&rowEnv{b: l.cb}).reuse()
		}
		out := l.buf[:0]
		env := l.env
		for _, lr := range in {
			matched := false
			for _, rr := range l.rrows {
				combined := joinRow(lr, rr)
				ok := true
				if l.on != nil {
					env.row = combined
					ok, err = truthy(env, l.on)
					if err != nil {
						return nil, err
					}
				}
				if ok {
					out = append(out, combined)
					matched = true
				}
			}
			if !matched && l.leftJoin {
				out = append(out, joinRow(lr, l.nullR))
			}
		}
		if len(out) > 0 {
			l.buf = out
			return out, nil
		}
	}
}

func (l *loopJoinIter) Close() { l.left.Close() }
