package engine

import (
	"context"
	"testing"

	"paradise/internal/schema"
	"paradise/internal/storage"
)

// segStore is benchStore's segmented twin: the same deterministic corpus
// in a store that seals every segRows rows (t ascends with the row index,
// so segments carry disjoint t zone maps).
func segStore(t testing.TB, n, segRows int, noPrune bool) *storage.Store {
	t.Helper()
	st, err := storage.NewStoreWith(storage.Config{SegmentRows: segRows, DisablePruning: noPrune})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.CreateTable(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
		schema.Col("cell", schema.TypeInt),
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(schema.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{
			schema.Float(float64(i % 8)),
			schema.Float(float64(i % 6)),
			schema.Float(0.5 + float64(i%30)/10),
			schema.Int(int64(i)),
			schema.Int(int64(i % 64)),
		})
	}
	if err := d.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLimitStopsOpeningSegments extends the LIMIT early-termination
// property below the batch level: a satisfied limit must stop *opening*
// segments, not merely stop pulling rows — the opened counter stays O(1)
// while the table holds dozens of sealed segments.
func TestLimitStopsOpeningSegments(t *testing.T) {
	st := segStore(t, 10_000, 128, false) // 78 sealed segments + tail
	res, err := New(st).Query(context.Background(), "SELECT x, y FROM d LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	stats := st.StorageStats()
	if stats.Segments < 70 {
		t.Fatalf("store not segmented as expected: %d sealed segments", stats.Segments)
	}
	if stats.SegmentsOpened > 2 {
		t.Fatalf("LIMIT 10 opened %d segments, want <= 2 (of %d)", stats.SegmentsOpened, stats.Segments)
	}
}

// TestPruningSkipsSegmentsUnderSQL drives zone-map pruning end-to-end
// through SQL: a selective t-range predicate over the time-ordered corpus
// must skip (not open) every segment outside the range, and the result
// must equal the unpruned answer.
func TestPruningSkipsSegmentsUnderSQL(t *testing.T) {
	st := segStore(t, 10_000, 128, false)
	res, err := New(st).Query(context.Background(), "SELECT t FROM d WHERE t >= 9000 AND t < 9500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("want 500 rows, got %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if v := r[0].AsInt(); v != int64(9000+i) {
			t.Fatalf("row %d: t=%d, want %d", i, v, 9000+i)
		}
	}
	stats := st.StorageStats()
	if stats.SegmentsSkipped < 60 {
		t.Fatalf("selective range skipped only %d of %d segments", stats.SegmentsSkipped, stats.Segments)
	}
	if stats.SegmentsOpened > 8 {
		t.Fatalf("selective range opened %d segments", stats.SegmentsOpened)
	}

	// Same query with pruning disabled: identical rows.
	unpruned := segStore(t, 10_000, 128, true)
	res2, err := New(unpruned).Query(context.Background(), "SELECT t FROM d WHERE t >= 9000 AND t < 9500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != len(res.Rows) {
		t.Fatalf("pruning changed the row count: %d vs %d", len(res.Rows), len(res2.Rows))
	}
	for i := range res.Rows {
		if !res.Rows[i][0].Identical(res2.Rows[i][0]) {
			t.Fatalf("pruning changed row %d", i)
		}
	}
	if s := unpruned.StorageStats(); s.SegmentsSkipped != 0 {
		t.Fatalf("DisablePruning still skipped %d segments", s.SegmentsSkipped)
	}
}

// predCapture wraps a store and records the structured predicates pushed
// into each columnar scan, so tests can pin the decline shapes: only the
// kernelizable conjunct *prefix* may reach storage.
type predCapture struct {
	*storage.Store
	scans []schema.ColScan
}

func (p *predCapture) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	p.scans = append(p.scans, sc)
	return p.Store.OpenColScan(ctx, name, sc)
}

func (p *predCapture) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	p.scans = append(p.scans, sc)
	return p.Store.OpenColMorsels(ctx, name, sc)
}

// TestPushdownDeclineShapes pins which conjuncts become pruning hints: a
// kernelizable comparison ahead of a non-kernelizable expression is pushed
// down; behind one, it is not (error order would change). NULL tests push
// down; arithmetic never does.
func TestPushdownDeclineShapes(t *testing.T) {
	cases := []struct {
		sql  string
		want int // pushed-down conjunct count
	}{
		{"SELECT x FROM d WHERE t > 100", 1},
		{"SELECT x FROM d WHERE t > 100 AND x < 3", 2},
		{"SELECT x FROM d WHERE t > 100 AND x + y > 3", 1},
		{"SELECT x FROM d WHERE x + y > 3 AND t > 100", 0},
		{"SELECT x FROM d WHERE t IS NOT NULL AND t > 100", 2},
		{"SELECT x FROM d WHERE x < y", 1},
	}
	for _, tc := range cases {
		src := &predCapture{Store: segStore(t, 1_000, 128, false)}
		if _, err := New(src).Query(context.Background(), tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(src.scans) == 0 {
			t.Fatalf("%s: no scan opened", tc.sql)
		}
		if got := len(src.scans[0].Predicate); got != tc.want {
			t.Fatalf("%s: pushed %d structured conjuncts, want %d", tc.sql, got, tc.want)
		}
	}
}

// TestOpenScanGathersStoreRows: a row scan over storage pivots full-width
// windows by gathering the table's row view, so every row it returns — from
// sealed segments and from the tail, with and without a filter — is the
// stored row itself, not a copy.
func TestOpenScanGathersStoreRows(t *testing.T) {
	st := segStore(t, 1_000, 128, false)
	tab, err := st.Table("d")
	if err != nil {
		t.Fatal(err)
	}
	stored := tab.Snapshot()
	even := func(r schema.Row) (bool, error) { return r[3].AsInt()%2 == 0, nil }
	for _, sc := range []schema.Scan{{}, {Filter: even}} {
		it, err := OpenScan(context.Background(), st, "d", sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := schema.DrainIterator(it)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Filter != nil && len(got) != len(stored)/2 || sc.Filter == nil && len(got) != len(stored) {
			t.Fatalf("filter %v: %d rows of %d", sc.Filter != nil, len(got), len(stored))
		}
		for _, r := range got {
			if &r[0] != &stored[r[3].AsInt()][0] {
				t.Fatalf("filter %v: row t=%d is a copy, not the stored row", sc.Filter != nil, r[3].AsInt())
			}
		}
	}
}
