package paradise_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	paradise "paradise"
	"paradise/experiments"
	"paradise/sensorsim"
)

// maxUseCaseAllocBytes bounds what one use-case query may allocate once
// its plan is cached. The chain hands stage outputs off as column batches
// and counts wire bytes per vector, so only the final, tiny result is ever
// pivoted to rows; a stage boundary that falls back to rows re-materializes
// thousands of rows per stage and blows far past this.
const maxUseCaseAllocBytes = 1 << 20

// TestUseCaseChainAllocations drains the §4.2 use-case query over the
// 10-minute apartment trace with the plan cache on, serially and with two
// workers, and fails if one query allocates more than 1 MB.
func TestUseCaseChainAllocations(t *testing.T) {
	sc := sensorsim.Apartment(10*time.Minute, true, 11)
	sc.PositionGridM = 0.25
	tr, err := sensorsim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sensorsim.BuildStore(tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		sess, err := paradise.Open(st,
			paradise.WithPolicy(paradise.Figure4Policy()),
			paradise.WithDefaultModule("ActionFilter"),
			paradise.WithPlanCache(paradise.NewPlanCache(0)),
			paradise.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			cur, err := sess.Query(ctx, experiments.OriginalUseCaseQuery)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		}
		run() // compiles and caches the plan
		const n = 10
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("parallelism %d: %d bytes allocated per query", par, per)
		if per > maxUseCaseAllocBytes {
			t.Errorf("parallelism %d: one use-case query allocated %d bytes, bound %d",
				par, per, maxUseCaseAllocBytes)
		}
	}
}
