package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	paradise "paradise"
	"paradise/internal/anonymize"
	"paradise/internal/engine"
	"paradise/internal/fragment"
	"paradise/internal/network"
	"paradise/internal/plan"
	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/server"
)

// span is one timed call of the traced replay. Spans of one statement
// share Query; Parent is the ID of the enclosing span (0 for the root).
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the replay's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// total sums span durations by name; n counts them.
	total map[string]time.Duration
	n     map[string]int
}

func (t *tracer) begin(name string, q, parent int) int {
	t.spans = append(t.spans, span{Name: name, Query: q, ID: len(t.spans) + 1, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	d := time.Duration(s.End - s.Start)
	t.total[s.Name] += d
	t.n[s.Name]++
	return d
}

// mean is the mean duration of the named span in the given unit.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	if t.n[name] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.n[name]) / float64(unit)
}

// layerResult is what the replay measured and checked.
type layerResult struct {
	tr         *tracer
	statements int
	denials    int
	stages     int
	executed   int
	// boundaryRows sums stage output rows; resultRows the final rows.
	boundaryRows, resultRows int
	ndjsonBytes, ndjsonRows  int64
	// covered sums, per statement, the layer times a cache-hit request
	// consists of (parse, rewrite when denied, chain, anonymization,
	// encoding); handled sums Server.ServeHTTP.
	covered, handled time.Duration
	mismatch         string
}

// replay runs client 0's seeded statements once more, one at a time and
// with no other load, calling each layer's public function in turn around
// a span, and checks that the layer-by-layer pipeline is the production
// one: same fragment plan, same rows, same Figure 3 accounting.
func replay(ctx context.Context, e *env, o options, log io.Writer) (*layerResult, error) {
	lr := &layerResult{tr: &tracer{t0: time.Now(), total: map[string]time.Duration{}, n: map[string]int{}}}
	tr := lr.tr
	par := runtime.GOMAXPROCS(0)
	topo := network.DefaultApartment()
	stats := statsSource(e.store)
	querySess := map[string]*paradise.Session{}
	modules := map[string]*policy.Module{}
	rewriters := map[string]*rewrite.Rewriter{}
	for name, tc := range e.tenants {
		sess, err := paradise.Open(e.store, sessionOptions(tc, e.srv.PlanCache())...)
		if err != nil {
			return nil, err
		}
		querySess[name] = sess
		pol := tc.Policy
		if pol == nil {
			pol = allowAll(e.store)
		}
		mod, ok := pol.ModuleByID(tc.DefaultModule)
		if tc.DefaultModule == "" && len(pol.Modules) == 1 {
			mod, ok = pol.Modules[0], true
		}
		if !ok {
			return nil, fmt.Errorf("tenant %q: no module %q", name, tc.DefaultModule)
		}
		modules[name] = mod
		rewriters[name] = rewrite.New(e.store.Catalog(), rewrite.Options{})
	}
	c := newClient(e.base)
	defer c.close()
	fail := func(i int, st *stmt, format string, args ...any) {
		if lr.mismatch == "" {
			lr.mismatch = fmt.Sprintf("statement %d (%s %q): ", i, st.kind, st.sql) + fmt.Sprintf(format, args...)
		}
	}

	seq := e.w.sequence(o.seed, 0)
	for i := 0; i < e.w.replay; i++ {
		st := seq.next()
		want := st.want
		// The reference plan and accounting come from set-up, except where
		// the store has grown since: then placement statistics and raw
		// sizes have moved, and a fresh reference run replaces them (the
		// rows must still match the set-up answer or the ledger).
		ref := want.ref
		if (ref == nil || e.w.rawGrows) && !want.deny {
			a, err := expect(ctx, e.ref[st.tenant], st.sql)
			if err != nil {
				return nil, err
			}
			if a.rows != want.rows {
				fail(i, st, "reference rows %+v, ledger says %+v", a.rows, want.rows)
			}
			ref = a.ref
		}
		// Untimed: the production session compiles (or finds) the plan, so
		// every timed call below sees the plan cache as a repeated request
		// does.
		rows, qerr := drainQuery(ctx, querySess[st.tenant], st.sql)
		if qerr != nil && !want.deny {
			return nil, qerr
		}
		if qerr == nil {
			if d, err := rowsDigest(rows); err != nil || d != want.rows {
				fail(i, st, "Session.Query rows %+v, want %+v", d, want.rows)
			}
		}
		lr.statements++
		root := tr.begin("replay.statement", i, 0)

		// The three request-level calls run in alternating order, so the
		// garbage one call leaves for the next to collect does not bias
		// encode_ms or loopback_ms one way.
		var handle, query time.Duration
		viaHTTP := func() error {
			id := tr.begin("server.http", i, root)
			r, err := c.query(ctx, st)
			tr.end(id)
			if err != nil {
				return err
			}
			if why := want.verdict(r); why != "" {
				fail(i, st, "HTTP answer: %s", why)
			}
			return nil
		}
		viaHandler := func() error {
			body, err := json.Marshal(server.QueryRequest{Tenant: st.tenant, SQL: st.sql})
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			id := tr.begin("server.handle", i, root)
			e.srv.ServeHTTP(rec, req)
			handle = tr.end(id)
			var hd digest
			for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
				if bytes.HasPrefix(line, prefixRow) {
					hd.add(line)
				}
			}
			if !want.deny && hd != want.rows {
				fail(i, st, "ServeHTTP rows %+v, want %+v", hd, want.rows)
			}
			lr.ndjsonBytes += hd.Bytes
			lr.ndjsonRows += int64(hd.Rows)
			return nil
		}
		viaSession := func() error {
			id := tr.begin("paradise.query", i, root)
			n, err := countQuery(ctx, querySess[st.tenant], st.sql)
			query = tr.end(id)
			if err != nil && !want.deny {
				return err
			}
			if err == nil && n != want.rows.Rows {
				fail(i, st, "Session.Query streamed %d rows, want %d", n, want.rows.Rows)
			}
			return nil
		}
		calls := []func() error{viaHTTP, viaHandler, viaSession}
		if i%2 == 1 {
			calls[0], calls[2] = calls[2], calls[0]
		}
		for _, call := range calls {
			if err := call(); err != nil {
				return nil, err
			}
		}
		lr.handled += handle
		encode := handle - query

		id := tr.begin("sqlparser.parse", i, root)
		sel, err := sqlparser.Parse(st.sql)
		parse := tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("rewrite.rewrite", i, root)
		rewritten, rep, err := rewriters[st.tenant].Rewrite(sel, modules[st.tenant])
		rw := tr.end(id)
		if errors.Is(err, rewrite.ErrDenied) {
			lr.denials++
			if !want.deny {
				fail(i, st, "replay denied a statement production answers: %v", err)
			}
			lr.covered += parse + rw + encode
			tr.end(root)
			continue
		}
		if err != nil {
			return nil, err
		}
		if want.deny {
			fail(i, st, "replay answers a statement production denies")
			tr.end(root)
			continue
		}
		mod := modules[st.tenant]

		id = tr.begin("plan.lower", i, root)
		lowered, err := plan.FromAST(rewritten)
		if err == nil {
			rep.Annotate(lowered, mod.ID)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("fragment.fragment", i, root)
		fp, err := fragment.New().FromPlan(lowered)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("fragment.place", i, root)
		fp.PlaceCostBased(stats)
		tr.end(id)
		if got, want := fp.Explain(), ref.explain; got != want {
			fail(i, st, "fragment plan differs from production:\n%s\nproduction:\n%s", got, want)
		}

		id = tr.begin("network.chain", i, root)
		rs, err := network.Run(ctx, topo, fp, e.store, network.WithParallelism(par))
		chain := tr.end(id)
		if err != nil {
			return nil, err
		}
		pre, err := rowsDigest(rs.Result.Rows)
		if err != nil {
			return nil, err
		}
		if pre != ref.pre {
			fail(i, st, "chain rows %+v, production %+v", pre, ref.pre)
		}
		if why := sameRunStats(rs, ref.net); why != "" {
			fail(i, st, "RunStats: %s", why)
		}
		lr.executed++
		lr.stages += len(fp.Fragments)
		for _, a := range rs.Assignments {
			lr.boundaryRows += a.OutRows
		}
		lr.resultRows += len(rs.Result.Rows)

		// The same rewritten plan, unfragmented, optimized as the engine
		// optimizes a statement it lowers itself.
		eng := engine.New(e.store).WithParallelism(par)
		mono, err := plan.FromAST(rewritten)
		if err != nil {
			return nil, err
		}
		rep.Annotate(mono, mod.ID)
		mono = plan.Optimize(mono, plan.Options{Catalog: eng.Catalog(), CrossBlock: true})
		id = tr.begin("engine.mono", i, root)
		_, err = eng.SelectPlan(ctx, mono)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		if tab, cs, ok := firstScan(e.store, fp); ok {
			id = tr.begin("storage.scan", i, root)
			err := drainCols(tab.ScanColumns(ctx, cs))
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}

		var anon time.Duration
		if ref.anonQI != nil {
			k := e.tenants[st.tenant].Anon.K
			id = tr.begin("anonymize.mondrian", i, root)
			out, err := anonymize.Mondrian(rs.Result.Schema, rs.Result.Rows, ref.anonQI, k)
			anon = tr.end(id)
			if err != nil {
				return nil, err
			}
			if d, _ := rowsDigest(out); d != want.rows {
				fail(i, st, "Mondrian rows %+v, production %+v", d, want.rows)
			}
		}
		lr.covered += parse + chain + anon + encode
		tr.end(root)
	}
	if err := writeSpans(o.spans, tr.spans); err != nil {
		fmt.Fprintln(log, "perfbench: spans:", err)
	}
	return lr, nil
}

// drainQuery runs a statement through Session.Query, drains and closes it.
func drainQuery(ctx context.Context, sess *paradise.Session, sql string) (paradise.Rows, error) {
	cur, err := sess.Query(ctx, sql)
	if err != nil {
		return nil, err
	}
	var rows paradise.Rows
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// countQuery is drainQuery without keeping the rows, as a server consumes
// a cursor.
func countQuery(ctx context.Context, sess *paradise.Session, sql string) (int, error) {
	cur, err := sess.Query(ctx, sql)
	if err != nil {
		return 0, err
	}
	n := 0
	for cur.Next() {
		n++
	}
	return n, cur.Close()
}

func drainCols(it schema.ColIterator) error {
	defer it.Close()
	for {
		b, err := it.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// sameRunStats compares the Figure 3 accounting of two chain runs.
func sameRunStats(a, b *network.RunStats) string {
	switch {
	case a.RawBytes != b.RawBytes:
		return fmt.Sprintf("raw %d, want %d", a.RawBytes, b.RawBytes)
	case a.EgressBytes != b.EgressBytes:
		return fmt.Sprintf("egress %d, want %d", a.EgressBytes, b.EgressBytes)
	case len(a.Traffic) != len(b.Traffic):
		return fmt.Sprintf("%d links, want %d", len(a.Traffic), len(b.Traffic))
	case len(a.Assignments) != len(b.Assignments):
		return fmt.Sprintf("%d stages, want %d", len(a.Assignments), len(b.Assignments))
	}
	for i := range a.Traffic {
		if a.Traffic[i].Bytes != b.Traffic[i].Bytes || a.Traffic[i].Rows != b.Traffic[i].Rows {
			return fmt.Sprintf("link %d carries %d B/%d rows, want %d B/%d rows", i,
				a.Traffic[i].Bytes, a.Traffic[i].Rows, b.Traffic[i].Bytes, b.Traffic[i].Rows)
		}
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.Node.Name != y.Node.Name || x.InRows != y.InRows || x.OutRows != y.OutRows || x.OutBytes != y.OutBytes {
			return fmt.Sprintf("stage %d: %s in=%d out=%d %d B, want %s in=%d out=%d %d B", i+1,
				x.Node.Name, x.InRows, x.OutRows, x.OutBytes, y.Node.Name, y.InRows, y.OutRows, y.OutBytes)
		}
	}
	return ""
}

// firstScan resolves the first stage's base-table scan into the columnar
// scan storage serves it with: the pruned columns and the pushed
// predicate's structured prefix (column vs literal or column).
func firstScan(store *paradise.Store, fp *fragment.Plan) (*paradise.Table, schema.ColScan, bool) {
	var cs schema.ColScan
	if len(fp.Fragments) == 0 {
		return nil, cs, false
	}
	f := fp.Fragments[0]
	var scan *plan.Scan
	plan.Walk(f.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && scan == nil && strings.EqualFold(s.Table, f.Input) {
			scan = s
		}
	})
	if scan == nil {
		return nil, cs, false
	}
	tab, err := store.Table(scan.Table)
	if err != nil {
		return nil, cs, false
	}
	rel := tab.Schema()
	col := func(name string) int {
		i, err := rel.Index(name)
		if err != nil {
			return -1
		}
		return i
	}
	if scan.Columns != nil {
		cs.Columns = []int{}
		for _, name := range scan.Columns {
			i := col(name)
			if i < 0 {
				cs.Columns = nil
				break
			}
			cs.Columns = append(cs.Columns, i)
		}
	}
	if scan.Predicate == nil {
		return tab, cs, true
	}
	ops := map[sqlparser.BinaryOp]schema.PredOp{
		sqlparser.OpEq: schema.PredEq, sqlparser.OpNeq: schema.PredNe,
		sqlparser.OpLt: schema.PredLt, sqlparser.OpLeq: schema.PredLe,
		sqlparser.OpGt: schema.PredGt, sqlparser.OpGeq: schema.PredGe,
	}
	flip := map[schema.PredOp]schema.PredOp{
		schema.PredEq: schema.PredEq, schema.PredNe: schema.PredNe,
		schema.PredLt: schema.PredGt, schema.PredLe: schema.PredGe,
		schema.PredGt: schema.PredLt, schema.PredGe: schema.PredLe,
	}
	for _, c := range sqlparser.Conjuncts(scan.Predicate) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok {
			break
		}
		op, ok := ops[b.Op]
		if !ok {
			break
		}
		lc, lIsCol := b.L.(*sqlparser.ColumnRef)
		rc, rIsCol := b.R.(*sqlparser.ColumnRef)
		ll, lIsLit := b.L.(*sqlparser.Literal)
		rl, rIsLit := b.R.(*sqlparser.Literal)
		var p schema.ColPred
		switch {
		case lIsCol && rIsLit:
			p = schema.ColPred{Op: op, Col: col(lc.Name), RCol: -1, Lit: rl.Value}
		case lIsLit && rIsCol:
			p = schema.ColPred{Op: flip[op], Col: col(rc.Name), RCol: -1, Lit: ll.Value}
		case lIsCol && rIsCol:
			p = schema.ColPred{Op: op, Col: col(lc.Name), RCol: col(rc.Name)}
			if p.RCol < 0 {
				p.Col = -1
			}
		default:
			p.Col = -1
		}
		if p.Col < 0 {
			break
		}
		cs.Predicate = append(cs.Predicate, p)
	}
	return tab, cs, true
}

// statsSource adapts the store's table statistics to the plan estimator,
// as the processor does for cost-based placement.
func statsSource(st *paradise.Store) plan.Stats {
	return func(table string) (*plan.TableStats, bool) {
		ts, err := st.TableStats(table)
		if err != nil {
			return nil, false
		}
		out := &plan.TableStats{Rows: float64(ts.Rows), Cols: make(map[string]plan.ColStats, len(ts.Cols))}
		if ts.Rows > 0 {
			out.RowBytes = float64(ts.Bytes) / float64(ts.Rows)
		}
		for _, c := range ts.Cols {
			nullFrac := 0.0
			if ts.Rows > 0 {
				nullFrac = float64(c.Nulls) / float64(ts.Rows)
			}
			cs := plan.ColStats{NDV: float64(c.NDV), NullFrac: nullFrac, HasRange: c.HasRange,
				Min: c.Min, Max: c.Max, AvgBytes: c.AvgBytes(ts.Rows)}
			if c.Hist != nil {
				cs.Hist = c.Hist
			}
			out.Cols[strings.ToLower(c.Name)] = cs
		}
		return out, true
	}
}

// allowAll is the unrestricted tenant's policy as paradise.Open generates
// it: one module permitting every attribute of every table.
func allowAll(store *paradise.Store) *policy.Policy {
	mod := &policy.Module{ID: "unrestricted"}
	seen := map[string]bool{}
	for _, name := range store.Names() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		for _, c := range t.Schema().Columns {
			lower := strings.ToLower(c.Name)
			if !seen[lower] {
				seen[lower] = true
				mod.Attributes = append(mod.Attributes, &policy.Attribute{Name: lower, Allow: true})
			}
		}
	}
	return &policy.Policy{Modules: []*policy.Module{mod}}
}

// writeSpans writes the replay's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
