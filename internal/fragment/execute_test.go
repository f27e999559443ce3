package fragment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"paradise/internal/engine"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

// materializedBaseline replays the plan the pre-streaming way: each stage's
// full result materialized into an overlay source, stats from len/WireSize.
// The streamed Execute must report exactly the same per-stage accounting.
func materializedBaseline(t *testing.T, plan *Plan, base engine.Source) []StageResult {
	t.Helper()
	type overlay struct {
		base engine.Source
		name string
		rel  *schema.Relation
		rows schema.Rows
	}
	var cur *overlay
	var out []StageResult
	for _, f := range plan.Fragments {
		src := base
		if cur != nil {
			src = sourceFunc(func(name string) (*schema.Relation, schema.Rows, error) {
				if name == cur.name {
					return cur.rel, cur.rows, nil
				}
				return base.Relation(name)
			})
		}
		res, err := engine.New(src).Select(context.Background(), f.Query)
		if err != nil {
			t.Fatalf("baseline stage %d: %v", f.Stage, err)
		}
		cur = &overlay{base: base, name: f.Output, rel: res.Schema.Clone(f.Output), rows: res.Rows}
		out = append(out, StageResult{Fragment: f, Rows: len(res.Rows), Bytes: res.Rows.WireSize()})
	}
	return out
}

// sourceFunc adapts a closure to engine.Source. Deliberately NOT a
// BatchSource: the baseline takes the fully materialized path.
type sourceFunc func(string) (*schema.Relation, schema.Rows, error)

func (f sourceFunc) Relation(name string) (*schema.Relation, schema.Rows, error) { return f(name) }

// TestStreamedStatsMatchMaterializedBaseline pins the accounting contract:
// chaining stage iterators must not change per-stage row/byte stats — even
// when a later stage carries a LIMIT that stops pulling early, because the
// producing node ships its whole output regardless.
func TestStreamedStatsMatchMaterializedBaseline(t *testing.T) {
	st := testStore(t)
	queries := []string{
		"SELECT x, y FROM d WHERE x > y AND z < 2",
		"SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y GROUP BY x, y HAVING SUM(z) > 1",
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) LIMIT 2",
		"SELECT s FROM (SELECT x + y AS s FROM d WHERE z < 2) WHERE s > 8",
		"SELECT x, y FROM d WHERE x > y ORDER BY x DESC LIMIT 3",
		"SELECT DISTINCT x FROM d WHERE z < 2",
	}
	for _, q := range queries {
		t.Run(q, func(t *testing.T) {
			plan := mustFragment(t, q)
			exec, err := Execute(context.Background(), plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want := materializedBaseline(t, plan, st)
			if len(exec.Stages) != len(want) {
				t.Fatalf("stage count %d != %d", len(exec.Stages), len(want))
			}
			for i := range want {
				if exec.Stages[i].Rows != want[i].Rows || exec.Stages[i].Bytes != want[i].Bytes {
					t.Fatalf("stage %d: streamed rows=%d bytes=%d, baseline rows=%d bytes=%d",
						i+1, exec.Stages[i].Rows, exec.Stages[i].Bytes, want[i].Rows, want[i].Bytes)
				}
			}
		})
	}
}

// TestExecuteEmptyPlan preserves the empty-plan error.
func TestExecuteEmptyPlan(t *testing.T) {
	if _, err := Execute(context.Background(), &Plan{}, testStore(t)); err == nil {
		t.Fatal("empty plan must error")
	}
}

// TestExecuteErrorBeyondLimitStillSurfaces: a runtime error past the rows a
// downstream LIMIT consumed must still fail the execution — the
// materialized baseline would have evaluated every row of every stage.
func TestExecuteErrorBeyondLimitStillSurfaces(t *testing.T) {
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
	))
	rows := make(schema.Rows, 0, 600)
	for i := 0; i < 600; i++ {
		z := 1.0
		if i == 500 {
			z = 0 // division by zero deep in the table
		}
		rows = append(rows, schema.Row{schema.Float(float64(i)), schema.Float(z)})
	}
	if err := d.Append(rows...); err != nil {
		t.Fatal(err)
	}
	plan := mustFragment(t, "SELECT s FROM (SELECT x / z AS s FROM d) LIMIT 1")
	if _, err := Execute(context.Background(), plan, st); err == nil {
		t.Fatal("division by zero beyond the LIMIT must fail the execution")
	}
}

// TestExecuteStageErrorAttribution: runtime errors carry the stage that
// caused them, once, even though they surface lazily through the chain.
func TestExecuteStageErrorAttribution(t *testing.T) {
	st := testStore(t)
	plan := mustFragment(t, "SELECT x / 0 AS bad FROM d WHERE z < 2")
	_, err := Execute(context.Background(), plan, st)
	if err == nil {
		t.Fatal("division by zero must surface")
	}
	if got := err.Error(); strings.Count(got, "fragment: stage") != 1 {
		t.Fatalf("error should be attributed to exactly one stage: %q", got)
	}
}

// TestChainCloseIdempotent: a chain (and its stage iterators) tolerates
// repeated Close, keeps its accounting stable, and a consumer that closed
// early still sees the fully drained per-stage stats.
func TestChainCloseIdempotent(t *testing.T) {
	st := testStore(t)
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x > y AND z < 2")
	chain, err := OpenChain(context.Background(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Iterator().NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	first := chain.Stages()
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	second := chain.Stages()
	for i := range first {
		if first[i].Rows != second[i].Rows || first[i].Bytes != second[i].Bytes {
			t.Fatalf("stage %d accounting changed across Close calls: %+v vs %+v",
				i+1, first[i], second[i])
		}
	}
	// The drain-on-close accounting matches a full materialized run.
	want := materializedBaseline(t, plan, st)
	for i := range want {
		if first[i].Rows != want[i].Rows || first[i].Bytes != want[i].Bytes {
			t.Fatalf("stage %d: closed-early rows=%d bytes=%d, baseline rows=%d bytes=%d",
				i+1, first[i].Rows, first[i].Bytes, want[i].Rows, want[i].Bytes)
		}
	}
	// Closing the final iterator directly (as DrainIterator does) must
	// also be safe after the chain closed.
	chain.Iterator().Close()
}

// TestChainCancelledContext: a cancelled context surfaces from Close as
// the drain error.
func TestChainCancelledContext(t *testing.T) {
	st := testStore(t)
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x > y AND z < 2")
	ctx, cancel := context.WithCancel(context.Background())
	chain, err := OpenChain(ctx, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := chain.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v, want context.Canceled", err)
	}
}

// TestColumnarHandOffMatchesRowBaseline runs chains whose stages above the
// first take the vectorized operators — kernels, expression projection,
// DISTINCT, GROUP BY, LIMIT — or the morsel path (sorts, windows) over a
// stage output carrying NULLs, strings and selections, serially and with
// four workers. Rows (in order) must
// equal the row engine over a materializing source, and the per-stage
// accounting must equal the materialized baseline's.
func TestColumnarHandOffMatchesRowBaseline(t *testing.T) {
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
		schema.Col("label", schema.TypeString),
	))
	for i := 0; i < 700; i++ {
		row := schema.Row{
			schema.Float(float64(i % 11)), schema.Float(float64(i % 7)),
			schema.Float(float64(i%23) / 10), schema.Int(int64(i)),
			schema.String([]string{"", "ä", "kitchen", "日本"}[i%4]),
		}
		for c := range row {
			if (i+c)%13 == 0 {
				row[c] = schema.Null()
			}
		}
		if err := d.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	rowOnly := sourceFunc(st.Relation)
	queries := []string{
		"SELECT x + y AS s, z * 2 AS z2 FROM d WHERE x > y AND z < 2",
		"SELECT t / 2 AS h, t % 3 AS m, -x AS nx, label FROM d WHERE x > y",
		"SELECT DISTINCT x, label FROM d WHERE x > y",
		"SELECT x, y, label FROM d WHERE x > y AND z < 2 LIMIT 7",
		"SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d WHERE x > y GROUP BY x",
		"SELECT label, x FROM d WHERE x > y AND t > 100",
		// An OR compiles to no kernel: the filter is residual only.
		"SELECT x, y, label FROM d WHERE x > y OR z < 0.5",
		// Sorts and windows take the morsel path above stage 1: the stage
		// output is shared among the workers through a columnar cursor.
		"SELECT x + y AS s, t FROM d WHERE x > y ORDER BY s, t",
		"SELECT SUM(z) OVER (PARTITION BY x ORDER BY t) AS w FROM d WHERE x > y",
	}
	for _, q := range queries {
		plan := mustFragment(t, q)
		if len(plan.Fragments) < 2 {
			t.Fatalf("%s: want a multi-stage plan, got %d stage(s)", q, len(plan.Fragments))
		}
		want, err := engine.New(rowOnly).Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		stages := materializedBaseline(t, plan, rowOnly)
		// Over a row-only base, stage 1 runs on rows and converts once at
		// its head; the stages above still run columnar.
		for _, run := range []struct {
			base engine.Source
			par  int
		}{{st, 1}, {st, 4}, {rowOnly, 1}, {rowOnly, 4}} {
			par := run.par
			got, err := Execute(context.Background(), plan, run.base, WithParallelism(par))
			if err != nil {
				t.Fatalf("%s (parallelism %d): %v", q, par, err)
			}
			if !reflect.DeepEqual(got.Result.Rows, want.Rows) {
				t.Fatalf("%s (parallelism %d): rows differ from the row engine:\n got %v\nwant %v",
					q, par, got.Result.Rows, want.Rows)
			}
			for i := range stages {
				if got.Stages[i].Rows != stages[i].Rows || got.Stages[i].Bytes != stages[i].Bytes {
					t.Fatalf("%s (parallelism %d) stage %d: rows=%d bytes=%d, baseline rows=%d bytes=%d",
						q, par, i+1, got.Stages[i].Rows, got.Stages[i].Bytes, stages[i].Rows, stages[i].Bytes)
				}
			}
		}
	}
}

// TestStageSourceServesOnlyItsOutput pins that a stage source answers for
// its upstream output alone, once, and only as column batches: any other
// relation is an error rather than an answer from somewhere else.
func TestStageSourceServesOnlyItsOutput(t *testing.T) {
	ctx := context.Background()
	rel := schema.NewRelation("d1", schema.Col("x", schema.TypeInt))
	rows := schema.Rows{{schema.Int(1)}, {schema.Int(2)}}
	s := &stageSource{name: "d1", rel: rel,
		it: &stageIter{src: schema.RowBatches(rel, schema.IterateRows(rows, 1))}}

	if got, err := s.RelationSchema("d1"); err != nil || got != rel {
		t.Fatalf("RelationSchema(d1) = %v, %v", got, err)
	}
	if _, err := s.RelationSchema("d"); !errors.Is(err, ErrFragment) {
		t.Fatalf("RelationSchema(d) = %v, want ErrFragment", err)
	}
	for _, name := range []string{"d", "d1"} {
		if _, _, err := s.Relation(name); !errors.Is(err, ErrFragment) {
			t.Fatalf("Relation(%s) = %v, want ErrFragment", name, err)
		}
	}
	if _, err := s.OpenColScan(ctx, "d", schema.ColScan{}); !errors.Is(err, ErrFragment) {
		t.Fatalf("OpenColScan(d) = %v, want ErrFragment", err)
	}
	ci, err := s.OpenColScan(ctx, "d1", schema.ColScan{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := schema.DrainIterator(schema.PivotRows(ci))
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("stage output = %v, %v; want %v", got, err, rows)
	}
	if _, err := s.OpenColMorsels(ctx, "d1", schema.ColScan{}); !errors.Is(err, ErrFragment) {
		t.Fatalf("second read = %v, want ErrFragment", err)
	}
}
