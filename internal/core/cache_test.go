package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

// cacheStore builds a small deterministic d with a sensitive column, so
// Figure 4 denials are reachable.
func cacheStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("d",
		schema.SensitiveCol("user", schema.TypeString),
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	for i := 0; i < 64; i++ {
		if err := tab.Append(schema.Row{
			schema.String(fmt.Sprintf("u%d", i%3)),
			schema.Float(float64(i % 8)),
			schema.Float(float64(i % 6)),
			schema.Float(0.5 + float64(i%30)/10),
			schema.Int(int64(i) * 50),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func cachedProcessor(t testing.TB, st *storage.Store, pol *policy.Policy, c *PlanCache) *Processor {
	t.Helper()
	p, err := New(Config{Store: st, Policy: pol, Cache: c, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allowAllActionFilter is a second policy under the same module ID as
// Figure 4 but with different rules: everything plainly allowed. Same SQL,
// same module — only the policy fingerprint tells cache entries apart.
func allowAllActionFilter() *policy.Policy {
	mod := &policy.Module{ID: "ActionFilter"}
	for _, n := range []string{"user", "x", "y", "z", "t"} {
		mod.Attributes = append(mod.Attributes, &policy.Attribute{Name: n, Allow: true})
	}
	return &policy.Policy{Modules: []*policy.Module{mod}}
}

func wantStats(t *testing.T, c *PlanCache, hits, misses uint64, size int) {
	t.Helper()
	s := c.Stats()
	if s.Hits != hits || s.Misses != misses || s.Size != size {
		t.Fatalf("cache stats = hits %d misses %d size %d, want %d/%d/%d",
			s.Hits, s.Misses, s.Size, hits, misses, size)
	}
}

// TestPlanCacheHitOnRepeat: the second run of the same statement shape is a
// hit, including spelling variants that parse to the same normalized SQL.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	if _, err := p.Process(ctx, "SELECT x, y FROM d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 0, 1, 1)
	if _, err := p.Process(ctx, "SELECT x, y FROM d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 1, 1)
	// Different raw spelling, same parse: whitespace and keyword case
	// normalize away in the canonical rendering the key is built from.
	if _, err := p.Process(ctx, "select  x,   y from d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 1, 1)
}

// TestPlanCacheDifferentPolicyMisses: two processors sharing one cache and
// one store, same SQL, same module ID, different policies — the second must
// miss and compile its own plan (the Figure 4 session injects x > y, the
// allow-all one must not inherit it).
func TestPlanCacheDifferentPolicyMisses(t *testing.T) {
	st := cacheStore(t)
	c := NewPlanCache(0)
	fig4 := cachedProcessor(t, st, policy.Figure4(), c)
	open := cachedProcessor(t, st, allowAllActionFilter(), c)
	ctx := context.Background()

	const q = "SELECT x, y FROM d"
	a, err := fig4.Process(ctx, q, "ActionFilter")
	if err != nil {
		t.Fatal(err)
	}
	b, err := open.Process(ctx, q, "ActionFilter")
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 0, 2, 2)
	if a.RewrittenSQL == b.RewrittenSQL {
		t.Fatalf("policies shared a rewrite: %q", a.RewrittenSQL)
	}
	// Each processor now hits its own entry.
	if _, err := fig4.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 2, 2)
}

// TestPlanCacheEpochInvalidation: DDL on the store bumps the schema epoch,
// so the statement recompiles; the stale entry stays behind until the LRU
// evicts it (capacity, not correctness).
func TestPlanCacheEpochInvalidation(t *testing.T) {
	st := cacheStore(t)
	c := NewPlanCache(0)
	p := cachedProcessor(t, st, policy.Figure4(), c)
	ctx := context.Background()

	const q = "SELECT x, y FROM d"
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 1, 1)

	st.Create(schema.NewRelation("other", schema.Col("v", schema.TypeInt)))
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 2, 2) // recompiled under the new epoch; old entry lingers
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 2, 2)
}

// TestPlanCacheLRUBound: the cache never exceeds its capacity; the least
// recently used entry goes first, and a re-run of the evicted statement is
// a miss again.
func TestPlanCacheLRUBound(t *testing.T) {
	c := NewPlanCache(2)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	queries := []string{
		"SELECT x FROM d",
		"SELECT y FROM d",
		"SELECT t FROM d",
	}
	for _, q := range queries {
		if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Size != 2 || s.Evictions != 1 {
		t.Fatalf("after 3 inserts at capacity 2: size %d evictions %d", s.Size, s.Evictions)
	}
	// The first statement was the LRU victim: running it again misses.
	if _, err := p.Process(ctx, queries[0], "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != 4 || got.Hits != 0 {
		t.Fatalf("evicted statement did not miss: %+v", got)
	}
}

// TestPlanCacheNeverCachesDenials: a policy-denied statement recompiles
// (and re-denies) on every run; nothing is inserted.
func TestPlanCacheNeverCachesDenials(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		_, err := p.Process(ctx, "SELECT user FROM d", "ActionFilter")
		if !errors.Is(err, rewrite.ErrDenied) {
			t.Fatalf("run %d: err = %v, want policy denial", i, err)
		}
	}
	wantStats(t, c, 0, 2, 0)
}

// TestPlanCacheSingleflight: N goroutines racing one cold key perform
// exactly one compilation — the leader's — and all requests succeed with
// the shared artifact. Run under -race this also proves the flight's
// publication ordering.
func TestPlanCacheSingleflight(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	var lowered atomic.Int64
	lowerPlanHook = func() { lowered.Add(1) }
	defer func() { lowerPlanHook = nil }()

	const workers = 16
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = p.Process(ctx, "SELECT x, y FROM d", "ActionFilter")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := lowered.Load(); got != 1 {
		t.Fatalf("lowered %d plan trees for one cold key, want 1", got)
	}
	s := c.Stats()
	if s.Size != 1 {
		t.Fatalf("cache size = %d, want 1", s.Size)
	}
	// Every lookup still counts exactly once; how many were hits depends on
	// arrival timing, but at least the leader missed.
	if s.Hits+s.Misses != workers || s.Misses < 1 {
		t.Fatalf("lookup accounting off: hits %d misses %d, want %d total with >= 1 miss",
			s.Hits, s.Misses, workers)
	}
}

// TestPlanCacheSingleflightDenial: a failed flight caches nothing and every
// racing request re-derives its own denial.
func TestPlanCacheSingleflightDenial(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	const workers = 8
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = p.Process(ctx, "SELECT user FROM d", "ActionFilter")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, rewrite.ErrDenied) {
			t.Fatalf("worker %d: err = %v, want policy denial", i, err)
		}
	}
	if s := c.Stats(); s.Size != 0 {
		t.Fatalf("denied statement was cached: size %d", s.Size)
	}
}

// TestPolicyFingerprint: equal rule content gives equal fingerprints
// regardless of instance identity; any rule difference changes it.
func TestPolicyFingerprint(t *testing.T) {
	a, b := policy.Figure4(), policy.Figure4()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two Figure4 instances disagree on fingerprint")
	}
	if a.Fingerprint() == allowAllActionFilter().Fingerprint() {
		t.Fatal("different policies share a fingerprint")
	}
}

// TestStatsSourceSnapshotPerCompilation: one statsSource closure answers
// every lookup of a table from the snapshot its first lookup took (any
// spelling), while a fresh closure — the next compilation — reads the
// store live again.
func TestStatsSourceSnapshotPerCompilation(t *testing.T) {
	st := cacheStore(t)
	p := cachedProcessor(t, st, policy.Figure4(), nil)
	stats := p.statsSource()
	first, ok := stats("d")
	if !ok || first.Rows != 64 {
		t.Fatalf("first lookup = %+v, %v; want 64 rows", first, ok)
	}
	tab, err := st.Table("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(schema.Row{schema.String("u0"), schema.Float(1), schema.Float(2), schema.Float(3), schema.Int(9)}); err != nil {
		t.Fatal(err)
	}
	if again, _ := stats("D"); again != first {
		t.Fatalf("second lookup in one compilation re-read the store: %+v", again)
	}
	if _, ok := stats("missing"); ok {
		t.Fatal("unknown table must stay unknown")
	}
	if fresh, _ := p.statsSource()("d"); fresh.Rows != 65 {
		t.Fatalf("next compilation sees %v rows, want the live 65", fresh.Rows)
	}
}
