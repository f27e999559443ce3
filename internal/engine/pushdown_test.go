package engine

import (
	"context"
	"strings"
	"testing"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// cellCountingSource measures what actually crosses the storage→engine
// boundary: rows and cells (rows × columns) per columnar scan, after the
// storage layer applied the pushed-down projection and zone-map pruning.
// It is how the plan-IR acceptance tests prove that pruned columns and
// pushed predicates shrink the data leaving storage.
type cellCountingSource struct {
	st    *storage.Store
	rows  int
	cells int
}

func (c *cellCountingSource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return c.st.Relation(name)
}

func (c *cellCountingSource) RelationSchema(name string) (*schema.Relation, error) {
	return c.st.RelationSchema(name)
}

func (c *cellCountingSource) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	return tapScan(ctx, c.st, name, sc, c.count)
}

func (c *cellCountingSource) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	return tapMorsels(ctx, c.st, name, sc, c.count)
}

func (c *cellCountingSource) count(cb *schema.ColBatch) error {
	c.rows += cb.Len()
	c.cells += cb.Len() * len(cb.Vecs)
	return nil
}

func queryCells(t *testing.T, n int, sql string) (rows, cells, resultRows int) {
	t.Helper()
	src := &cellCountingSource{st: benchStore(t, n)}
	res, err := New(src).Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return src.rows, src.cells, len(res.Rows)
}

// TestPrunedColumnsExpressionProjection: a projection over expressions reads
// only the referenced columns — 2 of the 5-column relation — instead of
// materializing full-width rows (the pre-IR engine only pruned when every
// select item was a bare column).
func TestPrunedColumnsExpressionProjection(t *testing.T) {
	const n = 4_000
	rows, cells, _ := queryCells(t, n, "SELECT x + y AS s FROM d")
	if rows != n {
		t.Fatalf("scanned %d rows, want %d", rows, n)
	}
	if want := 2 * n; cells != want {
		t.Fatalf("projection pruning: %d cells left storage, want %d (2 of 5 columns)", cells, want)
	}
}

// TestPrunedColumnsGroupedQuery: an aggregation reads only its GROUP BY
// column and aggregate arguments.
func TestPrunedColumnsGroupedQuery(t *testing.T) {
	const n = 4_000
	rows, cells, _ := queryCells(t, n, "SELECT cell, AVG(z) AS za FROM d GROUP BY cell")
	if rows != n {
		t.Fatalf("scanned %d rows, want %d", rows, n)
	}
	if want := 2 * n; cells != want {
		t.Fatalf("grouped pruning: %d cells left storage, want %d (cell and z only)", cells, want)
	}
}

// TestPushedPredicateThroughDerivedBlock: an outer predicate over a derived
// table's computed column migrates into the base scan (rewritten through
// the projection), so rows failing it never reach the outer block. x and y
// are in [0, 8) and [0, 6), so x + y > 100 matches nothing. Storage serves
// columns only, so the arithmetic form is filtered by the scan operator
// over the vectors it loads; the comparison a zone map can decide (x > 100)
// is pruned inside storage, and then the scan hands the engine zero rows.
func TestPushedPredicateThroughDerivedBlock(t *testing.T) {
	const n = 4_000
	q := "SELECT s FROM (SELECT x + y AS s, z FROM d) WHERE s > 100"
	_, _, resultRows := queryCells(t, n, q)
	if resultRows != 0 {
		t.Fatalf("expected empty result, got %d rows", resultRows)
	}
	root := plan.Optimize(mustPlan(t, q), plan.Options{Catalog: New(benchStore(t, 1)).Catalog(), CrossBlock: true})
	pushed := ""
	plan.Walk(root, func(nd plan.Node) {
		if s, ok := nd.(*plan.Scan); ok && s.Predicate != nil {
			pushed = s.Predicate.SQL()
		}
	})
	if !strings.Contains(pushed, "100") {
		t.Fatalf("outer predicate did not reach the base scan: pushed %q", pushed)
	}

	rows, cells, resultRows := queryCells(t, n, "SELECT s FROM (SELECT x AS s, z FROM d) WHERE s > 100")
	if resultRows != 0 {
		t.Fatalf("expected empty result, got %d rows", resultRows)
	}
	if rows != 0 || cells != 0 {
		t.Fatalf("pushed predicate: %d rows / %d cells left storage, want 0/0", rows, cells)
	}
}

// TestPrunedColumnsJoinSides: qualified references prune each join side's
// scan independently. d loads only x, cell and the filter column z of its
// 5 columns — z feeds the pushed predicate's kernel and is dropped before
// the join.
func TestPrunedColumnsJoinSides(t *testing.T) {
	const n = 4_000
	src := &cellCountingSource{st: benchStore(t, n)}
	res, err := New(src).Query(context.Background(),
		"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("join lost rows: %d of %d", len(res.Rows), n)
	}
	// d contributes x, cell and z (3 of 5); cells is already minimal (2 of 2).
	want := 3*n + 2*64
	if src.cells != want {
		t.Fatalf("join pruning: %d cells left storage, want %d", src.cells, want)
	}
}

// TestJoinResidualFilterSurvivesPruning: a WHERE conjunct referencing both
// join sides cannot be pushed below the join; the columns it reads must
// survive each side's scan pruning (regression: the pruner once dropped
// them, failing with an unknown-column error).
func TestJoinResidualFilterSurvivesPruning(t *testing.T) {
	st := benchStore(t, 1_000)
	q := "SELECT d.x FROM d JOIN cells ON d.cell = cells.cell WHERE d.x > cells.cell"
	pruned, err := New(st).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("mixed-side join filter failed under pruning: %v", err)
	}
	// Cross-check against the unoptimized plan (no catalog, no pruning).
	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(st).SelectPlan(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Rows) != len(plain.Rows) {
		t.Fatalf("pruning changed the join result: %d vs %d rows", len(pruned.Rows), len(plain.Rows))
	}
}

// TestGroupedOrderByAggregateKeepsArgColumns: aggregate calls in a grouped
// ORDER BY are evaluated over input rows, so their argument columns must
// not be pruned from the scan. The shape itself is unsupported at the sort
// (as before the plan IR), but it must fail there — not earlier with a
// pruning-induced unknown-column error.
func TestGroupedOrderByAggregateKeepsArgColumns(t *testing.T) {
	st := benchStore(t, 500)
	_, err := New(st).Query(context.Background(),
		"SELECT cell, COUNT(*) AS n FROM d GROUP BY cell ORDER BY MAX(x)")
	if err == nil {
		t.Skip("grouped ORDER BY aggregate became supported; drop this guard")
	}
	if !strings.Contains(err.Error(), "not allowed here") {
		t.Fatalf("want the pre-IR sort error, got a pruning casualty: %v", err)
	}
}

// TestPushdownKeepsResults: pruning and pushdown must not change answers —
// the same queries over a counting source and a plain store agree.
func TestPushdownKeepsResults(t *testing.T) {
	queries := []string{
		"SELECT x + y AS s FROM d WHERE x > y ORDER BY s LIMIT 20",
		"SELECT cell, AVG(z) AS za FROM d GROUP BY cell HAVING COUNT(*) > 5 ORDER BY za",
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) WHERE s > 3",
		"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1",
	}
	st := benchStore(t, 2_000)
	for _, q := range queries {
		plain, err := New(st).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		counted, err := New(&cellCountingSource{st: st}).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q (counted): %v", q, err)
		}
		if len(plain.Rows) != len(counted.Rows) {
			t.Fatalf("%q: row count diverged %d vs %d", q, len(plain.Rows), len(counted.Rows))
		}
		for i := range plain.Rows {
			for j := range plain.Rows[i] {
				if !plain.Rows[i][j].Identical(counted.Rows[i][j]) {
					t.Fatalf("%q: row %d differs", q, i)
				}
			}
		}
	}
}

// TestAmbiguousDerivedNameErrorsWithOptimization (regression, PR 3 bug):
// duplicate derived-table output names must error "ambiguous" with the
// optimizer on, exactly like the unoptimized plan — cross-block pushdown
// used to resolve the reference to the last duplicate and return rows.
func TestAmbiguousDerivedNameErrorsWithOptimization(t *testing.T) {
	st := benchStore(t, 100)
	q := "SELECT z FROM (SELECT x AS s, y AS s, z FROM d) WHERE s > 3"

	_, optErr := New(st).Query(context.Background(), q)
	if optErr == nil || !strings.Contains(optErr.Error(), "ambiguous") {
		t.Fatalf("optimized plan: want ambiguous-column error, got %v", optErr)
	}

	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, plainErr := New(st).SelectPlan(context.Background(), root)
	if plainErr == nil || !strings.Contains(plainErr.Error(), "ambiguous") {
		t.Fatalf("unoptimized plan: want ambiguous-column error, got %v", plainErr)
	}
}

// TestAmbiguousDerivedOutputNameErrors extends the duplicate-name guard to
// derived (unaliased) output names: SELECT abs(x), y AS abs exposes "abs"
// twice even though only one item is aliased. The push must bail so the
// reference errors "ambiguous" like the unoptimized plan.
func TestAmbiguousDerivedOutputNameErrors(t *testing.T) {
	st := benchStore(t, 100)
	q := "SELECT z FROM (SELECT abs(x), y AS abs, z FROM d) WHERE abs > 3"
	_, err := New(st).Query(context.Background(), q)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("optimized plan: want ambiguous-column error, got %v", err)
	}
}
