package engine

import (
	"context"
	"fmt"
	"math"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized expression projection: numeric select-list expressions are
// compiled into a tree of vector operators that run over unboxed payload
// slices, so x + y over a 256-row batch is one tight float64 loop instead of
// 256 evalExpr walks boxing six-field Values at every node. Pass-through
// columns forward the scan's vectors, expression columns become fresh
// vectors, and only a row consumer pivots the output batch.
//
// The compiler is deliberately narrow: plain column references of static
// numeric type, numeric literals, NULL, unary minus/plus and the arithmetic
// operators + - * / %. Anything else — string ops, CASE, functions,
// comparisons producing booleans — declines, and the block falls back to the
// row path, which stays the semantic reference. Within that fragment the
// semantics are bit-identical to evalBinary/evalArith:
//
//   - NULL on either side yields NULL (checked before any arithmetic, so
//     NULL / 0 is NULL, not an error).
//   - int op int stays integral except division; both use Go's wrapping
//     int64 arithmetic like the row path.
//   - Division/modulo by zero errors with the row path's exact message and
//     expression text.
//   - Error ordering: the row path aborts on the first failing row,
//     evaluating items left to right. Vector evaluation runs item by item
//     (column-major), so each item reports its first error position and the
//     iterator surfaces the error with the smallest row index, ties broken
//     by item order.
//
// Boxed vectors (heterogeneous columns) make static types meaningless; any
// batch referencing one falls back to row-at-a-time projection for that
// batch, keeping results exact.

// ptype is the static result type of a compiled projection node.
type ptype int

const (
	pInt ptype = iota
	pFloat
	pNull // statically NULL (a NULL literal somewhere in the tree)
)

// pcol is one evaluated projection column over the current batch's
// candidates: dense payloads of length n, or a single constant (konst), or
// all-NULL. Payload and null slices are scratch owned by the producing node,
// valid until its next eval.
type pcol struct {
	isFloat bool
	konst   bool
	allNull bool
	ints    []int64
	floats  []float64
	nulls   []bool // nil = no NULLs (ignored for konst/allNull)
}

func (p *pcol) nullAt(k int) bool {
	if p.allNull {
		return true
	}
	return !p.konst && p.nulls != nil && p.nulls[k]
}

func (p *pcol) intAt(k int) int64 {
	if p.konst {
		return p.ints[0]
	}
	return p.ints[k]
}

func (p *pcol) floatAt(k int) float64 {
	if p.isFloat {
		if p.konst {
			return p.floats[0]
		}
		return p.floats[k]
	}
	return float64(p.intAt(k))
}

// pnode is a compiled projection operator. eval returns the column over the
// batch's candidates (sel nil = all n physical rows), or the node's first
// error with its candidate position (the row the serial evaluator would have
// failed at).
type pnode interface {
	eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error)
}

// pLit is a numeric or NULL literal.
type pLit struct{ out pcol }

func (l *pLit) eval(*schema.ColBatch, []int, int) (*pcol, int, error) { return &l.out, -1, nil }

// pRef reads one loaded column: a zero-copy alias of the payload when no
// selection is active, a gather into scratch otherwise.
type pRef struct {
	col     int
	isFloat bool
	out     pcol
	ibuf    []int64
	fbuf    []float64
	nbuf    []bool
}

func (r *pRef) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	v := &cb.Vecs[r.col]
	o := &r.out
	o.isFloat, o.konst, o.allNull = r.isFloat, false, false
	if sel == nil {
		o.nulls = v.Nulls
		if r.isFloat {
			o.floats = v.Floats
		} else {
			o.ints = v.Ints
		}
		return o, -1, nil
	}
	if r.isFloat {
		r.fbuf = r.fbuf[:0]
		for _, i := range sel {
			r.fbuf = append(r.fbuf, v.Floats[i])
		}
		o.floats = r.fbuf
	} else {
		r.ibuf = r.ibuf[:0]
		for _, i := range sel {
			r.ibuf = append(r.ibuf, v.Ints[i])
		}
		o.ints = r.ibuf
	}
	o.nulls = nil
	if v.Nulls != nil {
		r.nbuf = r.nbuf[:0]
		for _, i := range sel {
			r.nbuf = append(r.nbuf, v.Nulls[i])
		}
		o.nulls = r.nbuf
	}
	return o, -1, nil
}

// pNeg is unary minus (and unary plus compiles to the child directly).
type pNeg struct {
	x    pnode
	out  pcol
	ibuf []int64
	fbuf []float64
}

func (g *pNeg) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	xc, k, err := g.x.eval(cb, sel, n)
	if err != nil {
		return nil, k, err
	}
	o := &g.out
	if xc.allNull {
		*o = pcol{konst: true, allNull: true}
		return o, -1, nil
	}
	o.isFloat, o.konst, o.allNull, o.nulls = xc.isFloat, xc.konst, false, nil
	m := n
	if o.konst {
		m = 1
	} else {
		o.nulls = xc.nulls
	}
	if xc.isFloat {
		g.fbuf = g.fbuf[:0]
		for k := 0; k < m; k++ {
			g.fbuf = append(g.fbuf, -xc.floatAt(k))
		}
		o.floats = g.fbuf
	} else {
		g.ibuf = g.ibuf[:0]
		for k := 0; k < m; k++ {
			g.ibuf = append(g.ibuf, -xc.intAt(k))
		}
		o.ints = g.ibuf
	}
	return o, -1, nil
}

// pBin is one arithmetic operator.
type pBin struct {
	op     sqlparser.BinaryOp
	at     *sqlparser.BinaryExpr // for error text, like the row path
	l, r   pnode
	intRes bool // statically int op int with op != / (stays integral)
	out    pcol
	ibuf   []int64
	fbuf   []float64
	nbuf   []bool
}

func (b *pBin) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	// Both children always evaluate (the row path evaluates both operands
	// before its NULL check, so a dividing-by-zero right side errors even
	// under a NULL left side). The earlier error position wins; on the same
	// row the left operand fails first.
	lc, kl, el := b.l.eval(cb, sel, n)
	rc, kr, er := b.r.eval(cb, sel, n)
	if el != nil || er != nil {
		if el != nil && (er == nil || kl <= kr) {
			return nil, kl, el
		}
		return nil, kr, er
	}
	o := &b.out
	if lc.allNull || rc.allNull {
		*o = pcol{konst: true, allNull: true}
		return o, -1, nil
	}
	o.allNull = false
	o.konst = lc.konst && rc.konst
	m := n
	if o.konst {
		m = 1
	}
	// Merge the null masks: NULL on either side nulls the result row.
	var ln, rn []bool
	if !lc.konst {
		ln = lc.nulls
	}
	if !rc.konst {
		rn = rc.nulls
	}
	switch {
	case ln == nil:
		o.nulls = rn
	case rn == nil:
		o.nulls = ln
	default:
		b.nbuf = b.nbuf[:0]
		for k := 0; k < m; k++ {
			b.nbuf = append(b.nbuf, ln[k] || rn[k])
		}
		o.nulls = b.nbuf
	}
	nulls := o.nulls
	if o.konst {
		nulls = nil
	}

	if b.intRes {
		o.isFloat = false
		b.ibuf = b.ibuf[:0]
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				b.ibuf = append(b.ibuf, 0)
				continue
			}
			x, y := lc.intAt(k), rc.intAt(k)
			var z int64
			switch b.op {
			case sqlparser.OpAdd:
				z = x + y
			case sqlparser.OpSub:
				z = x - y
			case sqlparser.OpMul:
				z = x * y
			case sqlparser.OpMod:
				if y == 0 {
					return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
				}
				z = x % y
			}
			b.ibuf = append(b.ibuf, z)
		}
		o.ints = b.ibuf
		return o, -1, nil
	}

	o.isFloat = true
	b.fbuf = b.fbuf[:0]
	for k := 0; k < m; k++ {
		if nulls != nil && nulls[k] {
			b.fbuf = append(b.fbuf, 0)
			continue
		}
		x, y := lc.floatAt(k), rc.floatAt(k)
		var z float64
		switch b.op {
		case sqlparser.OpAdd:
			z = x + y
		case sqlparser.OpSub:
			z = x - y
		case sqlparser.OpMul:
			z = x * y
		case sqlparser.OpDiv:
			if y == 0 {
				return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
			}
			z = x / y
		case sqlparser.OpMod:
			if y == 0 {
				return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
			}
			z = math.Mod(x, y)
		}
		b.fbuf = append(b.fbuf, z)
	}
	o.floats = b.fbuf
	return o, -1, nil
}

// compilePExpr compiles one select-list expression into a projection node,
// recording every referenced load-layout column in *refs. ok=false declines
// (unsupported form or non-numeric static type).
func compilePExpr(e sqlparser.Expr, lb *binding, lrel *schema.Relation, refs *[]int) (pnode, ptype, bool) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		switch x.Value.Type() {
		case schema.TypeInt:
			return &pLit{out: pcol{konst: true, ints: []int64{x.Value.AsInt()}}}, pInt, true
		case schema.TypeFloat:
			return &pLit{out: pcol{konst: true, isFloat: true, floats: []float64{x.Value.AsFloat()}}}, pFloat, true
		case schema.TypeNull:
			return &pLit{out: pcol{konst: true, allNull: true}}, pNull, true
		}
		return nil, 0, false
	case *sqlparser.ColumnRef:
		i, err := lb.resolve(x)
		if err != nil {
			return nil, 0, false
		}
		switch lrel.Columns[i].Type {
		case schema.TypeInt:
			*refs = append(*refs, i)
			return &pRef{col: i}, pInt, true
		case schema.TypeFloat:
			*refs = append(*refs, i)
			return &pRef{col: i, isFloat: true}, pFloat, true
		}
		return nil, 0, false
	case *sqlparser.UnaryExpr:
		if x.Op != sqlparser.UnaryNeg {
			return nil, 0, false
		}
		child, t, ok := compilePExpr(x.X, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		return &pNeg{x: child}, t, true
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		default:
			return nil, 0, false
		}
		l, lt, ok := compilePExpr(x.L, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		r, rt, ok := compilePExpr(x.R, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		t := pFloat
		switch {
		case lt == pNull || rt == pNull:
			t = pNull
		case lt == pInt && rt == pInt && x.Op != sqlparser.OpDiv:
			t = pInt
		}
		return &pBin{op: x.Op, at: x, l: l, r: r, intRes: t == pInt}, t, true
	}
	return nil, 0, false
}

// vector materializes the column as an emitted vector of physical length
// n aligned with the batch: candidate k lands at position sel[k] (k itself
// when sel is nil). The vector is typed t, the column's declared type. A
// result whose runtime type differs from t goes through Append, which
// boxes, so the vector round-trips exactly what the row path computes.
// A typed vector reuses reuse's payload and null mask when they are large
// enough (a lent batch's previous vector; the zero ColVec otherwise).
func (p *pcol) vector(reuse schema.ColVec, t schema.Type, n int, sel []int) schema.ColVec {
	m := n
	if sel != nil {
		m = len(sel)
	}
	pos := func(k int) int {
		if sel == nil {
			return k
		}
		return sel[k]
	}
	if !p.allNull && ((p.isFloat && t == schema.TypeFloat) || (!p.isFloat && t == schema.TypeInt)) {
		v := schema.ColVec{Typ: t}
		if p.isFloat {
			v.Floats = grow(reuse.Floats, n)
		} else {
			v.Ints = grow(reuse.Ints, n)
		}
		for k := 0; k < m; k++ {
			switch i := pos(k); {
			case p.nullAt(k):
				if v.Nulls == nil {
					v.Nulls = grow(reuse.Nulls, n)
					clear(v.Nulls)
				}
				v.Nulls[i] = true
			case p.isFloat:
				v.Floats[i] = p.floatAt(k)
			default:
				v.Ints[i] = p.intAt(k)
			}
		}
		return v
	}
	vals := make([]schema.Value, n)
	for k := 0; k < m; k++ {
		switch i := pos(k); {
		case p.nullAt(k):
		case p.isFloat:
			vals[i] = schema.Float(p.floatAt(k))
		default:
			vals[i] = schema.Int(p.intAt(k))
		}
	}
	v := schema.NewColVec(t)
	for _, x := range vals {
		v.Append(x)
	}
	return v
}

// grow is buf resliced to n when its capacity allows, else a new slice.
// Positions outside the batch's selection are never read, so a reused
// payload needs no clearing.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// projItem is one output column of the vectorized projection: a pass-through
// of a loaded column, or a compiled expression node.
type projItem struct {
	pass int // load-layout position when >= 0
	node pnode
}

// openVecProject compiles a plain single-table SELECT whose expression
// items are all vectorizable; pass-through items (plain columns) cost
// nothing, so a plain scan compiles here too. It declines a block with no
// expression item whose filter has no kernel, over every source: the row
// scan evaluates such a filter on the pivoted rows (over storage a gather
// of the row view) without building output batches
// (BenchmarkScanResidualFilter runs about a fifth slower columnar).
func (e *Engine) openVecProject(ctx context.Context, cs ColScanner, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, bool, error) {
	p, rel, ok := e.vecBlockScan(s, blk)
	if !ok {
		return nil, nil, false, nil
	}
	proj, err := buildProjector(blk.Items(), p.lb)
	if err != nil {
		return nil, nil, false, nil // row path reports the projection error
	}
	items := make([]projItem, len(proj.cols))
	var refs []int
	exprs := 0
	passAll := len(proj.cols) == p.m
	for i, c := range proj.cols {
		if c.starIdx >= 0 {
			items[i] = projItem{pass: c.starIdx}
			passAll = passAll && c.starIdx == i
			continue
		}
		node, _, ok := compilePExpr(c.expr, p.lb, p.lrel, &refs)
		if !ok {
			return nil, nil, false, nil
		}
		items[i] = projItem{pass: -1, node: node}
		exprs++
		passAll = false
	}
	if exprs == 0 && len(p.kernels) == 0 && p.residual != nil {
		return nil, nil, false, nil
	}

	sc := p.colScan(rel.Arity())
	if blk.Limit != nil && len(p.kernels) == 0 && p.residual == nil {
		sc.BatchSize = limitBatch(blk.Limit.N, sc.BatchSize)
	}
	ci, err := cs.OpenColScan(ctx, s.Table, sc)
	if err != nil {
		return nil, nil, false, err
	}
	v := &vecProjIter{
		src:     ci,
		ex:      newVecExec(p),
		proj:    proj,
		env:     (&rowEnv{b: p.lb}).reuse(),
		items:   items,
		results: make([]*pcol, len(items)),
		refs:    refs,
		orel:    proj.rel,
		passAll: passAll,
	}
	return proj.rel, newVecHead(ctx, v, blk), true, nil
}

// vecProjIter filters each batch with the compiled kernels and evaluates
// the projection item by item over the surviving candidates. NextBatch
// emits the pass-through columns as the scan's vectors and the expression
// columns as fresh vectors aligned with the batch, so the output keeps the
// scan's selection.
type vecProjIter struct {
	src     schema.ColIterator
	ex      *vecExec
	proj    *projector // row fallback for batches with boxed vectors
	env     *rowEnv
	items   []projItem
	results []*pcol
	refs    []int
	orel    *schema.Relation
	// passAll marks the identity projection of the loaded output columns,
	// which forwards the scan's row view when the load is full width.
	passAll bool
	// lent makes NextBatch lend its output (see lender): the batch, its
	// expression vectors and its selection are reused by the next pull.
	lent bool
	out  schema.ColBatch // the lent batch
}

func (v *vecProjIter) lend() { v.lent = true }

// step pulls batches until one has live rows, filters it and evaluates the
// expression items into v.results (valid until the next step). When a
// boxed vector defeats the static types, the survivors are projected
// row-at-a-time instead and returned as rows. cb is nil at exhaustion.
func (v *vecProjIter) step() (cb *schema.ColBatch, sel []int, rows schema.Rows, err error) {
	for {
		cb, err := v.src.NextBatch()
		if err != nil || cb == nil {
			return nil, nil, nil, err
		}
		sel, err := v.ex.filterSel(cb)
		if err != nil {
			return nil, nil, nil, err
		}
		n := cb.N
		if sel != nil {
			n = len(sel)
		}
		if n == 0 {
			continue
		}
		for _, c := range v.refs {
			if cb.Vecs[c].Boxed() {
				rows, err := v.rowFallback(cb, sel)
				return cb, sel, rows, err
			}
		}

		var pend error
		pendK := -1
		for ci, it := range v.items {
			if it.pass >= 0 {
				continue
			}
			pc, k, err := it.node.eval(cb, sel, n)
			if err != nil {
				if pend == nil || k < pendK {
					pend, pendK = err, k
				}
				continue
			}
			v.results[ci] = pc
		}
		if pend != nil {
			return nil, nil, nil, pend
		}
		return cb, sel, nil, nil
	}
}

// ownSel turns a filter result over cb into the Sel of an emitted batch:
// nil when every physical row survived, cb's own Sel when the filter
// dropped nothing, otherwise a copy of the executor's scratch selection.
func ownSel(cb *schema.ColBatch, sel []int) []int {
	switch {
	case sel == nil || len(sel) == cb.N:
		return nil
	case cb.Sel != nil && len(sel) == len(cb.Sel):
		return cb.Sel
	default:
		return append([]int(nil), sel...)
	}
}

func (v *vecProjIter) NextBatch() (*schema.ColBatch, error) {
	cb, sel, rows, err := v.step()
	if err != nil || cb == nil {
		return nil, err
	}
	if rows != nil {
		return schema.BatchFromRows(v.orel, rows), nil
	}
	var out *schema.ColBatch
	if v.lent {
		if v.out.Vecs == nil {
			v.out = schema.ColBatch{Rel: v.orel, Vecs: make([]schema.ColVec, len(v.items))}
		}
		out = &v.out
		out.N, out.Sel, out.View = cb.N, sel, nil
	} else {
		out = &schema.ColBatch{Rel: v.orel, Vecs: make([]schema.ColVec, len(v.items)), N: cb.N, Sel: ownSel(cb, sel)}
	}
	for ci, it := range v.items {
		if it.pass >= 0 {
			out.Vecs[ci] = cb.Vecs[it.pass]
			continue
		}
		var reuse schema.ColVec
		if v.lent {
			reuse = out.Vecs[ci]
		}
		out.Vecs[ci] = v.results[ci].vector(reuse, v.orel.Columns[ci].Type, cb.N, sel)
	}
	if v.passAll && len(v.items) == len(cb.Vecs) {
		out.View = cb.View
	}
	return out, nil
}

func (v *vecProjIter) rowFallback(cb *schema.ColBatch, sel []int) (schema.Rows, error) {
	tmp := schema.ColBatch{Rel: v.ex.p.lrel, Vecs: cb.Vecs, N: cb.N, Sel: sel, View: cb.View}
	in := tmp.Rows()
	w := len(v.proj.cols)
	vals := make([]schema.Value, len(in)*w)
	out := make(schema.Rows, len(in))
	for i, r := range in {
		v.env.row = r
		orow := schema.Row(vals[i*w : (i+1)*w : (i+1)*w])
		if err := v.proj.projectInto(v.env, orow); err != nil {
			return nil, err
		}
		out[i] = orow
	}
	return out, nil
}

func (v *vecProjIter) Close() { v.src.Close() }
