package main

import (
	"fmt"
	"math/rand"
	"time"

	paradise "paradise"
	"paradise/experiments"
	"paradise/internal/core"
	"paradise/sensorsim"
	"paradise/server"
)

// workload is one seeded traffic mix over one corpus.
type workload struct {
	// corpus records the corpus sizes with each result; table names the
	// queried table, whose row count is added after set-up.
	corpus map[string]int
	table  string
	// prepare writes what set-up recovers from (untimed, once per run);
	// cleanup removes it.
	prepare, cleanup func() error
	// open builds or recovers the store; it is timed as part of set-up.
	open func() (*paradise.Store, error)
	// tenants are served next to paradised's defaults ("default" under
	// the Figure 4 policy, "open" unrestricted).
	tenants []server.TenantConfig
	// fixed are the statements answered once at set-up; warm are sent
	// once during set-up to warm the plan cache; confirm are decoded once
	// to prove the digest comparison.
	fixed, warm, confirm []*stmt
	// mix is the weighted statement mix of every client.
	mix []choice
	// replay is how many statements of client 0's sequence the traced
	// replay runs.
	replay int
	// rawGrows marks a store that grows under the statements, so the
	// trailer's raw size (the whole base table) is not fixed.
	rawGrows bool
	// ingest is the open-loop writer (city-ingest only).
	ingest *ingester
	// finish runs after the timed phase and the replay (durability).
	finish func(e *env) error
}

// choice is one entry of a weighted statement mix.
type choice struct {
	weight int
	pick   func(rng *rand.Rand) *stmt
}

// one always picks the same statement.
func one(s *stmt) func(*rand.Rand) *stmt { return func(*rand.Rand) *stmt { return s } }

// sequence is one client's seeded statement stream. The mix is dealt as a
// shuffled deck, so every deck (the sum of the weights) holds the mix's
// exact shares and seeds differ only in order and literals.
type sequence struct {
	w    *workload
	rng  *rand.Rand
	deck []int
}

func (w *workload) sequence(seed int64, client int) *sequence {
	return &sequence{w: w, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))}
}

func (s *sequence) next() *stmt {
	if len(s.deck) == 0 {
		for i, c := range s.w.mix {
			for j := 0; j < c.weight; j++ {
				s.deck = append(s.deck, i)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	i := s.deck[0]
	s.deck = s.deck[1:]
	return s.w.mix[i].pick(s.rng)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(o options) (*workload, error){
	"apartment-policy": apartmentPolicy,
	"bulk-export":      bulkExport,
	"city-ingest":      cityIngest,
}

// scaled applies the test scale factor to a size, keeping it >= min.
func scaled(o options, n, min int) int {
	v := int(float64(n) * o.scale)
	if v < min {
		return min
	}
	return v
}

// useCaseSQL is the §4.2 use-case query as the assistive system sends it.
const useCaseSQL = experiments.OriginalUseCaseQuery

// apartmentPolicy: the Smart Lab apartment trace (10 simulated minutes
// with a fall) queried under the Figure 4 policy. Results are small, so
// the fragment chains and the engine do most of the work; the seeded
// t-range literals give the plan cache four times more shapes than its
// capacity.
func apartmentPolicy(o options) (*workload, error) {
	dur := time.Duration(float64(10*time.Minute) * o.scale)
	if dur < 30*time.Second {
		dur = 30 * time.Second
	}
	open := func() (*paradise.Store, error) {
		sc := sensorsim.Apartment(dur, true, o.seed)
		sc.PositionGridM = 0.25 // as cmd/paradised serves it
		tr, err := sensorsim.Generate(sc)
		if err != nil {
			return nil, err
		}
		return sensorsim.BuildStore(tr)
	}
	rng := rand.New(rand.NewSource(o.seed))
	span := dur.Milliseconds()
	// Literal pool: 4 x the default plan-cache capacity, drawn from the
	// second half of the trace so results stay small.
	pool := make([]*stmt, scaled(o, 4*core.DefaultPlanCacheSize, 8))
	seen := map[int64]bool{}
	for i := range pool {
		var lit int64
		for {
			lit = span/2 + rng.Int63n(span/2)
			if !seen[lit] {
				seen[lit] = true
				break
			}
		}
		pool[i] = &stmt{kind: "t-range", tenant: "default",
			sql: fmt.Sprintf("SELECT x, y, t FROM d WHERE t > %d", lit)}
	}
	// One seeded literal for the anonymizing tenant, from a narrow band so
	// the Mondrian input size barely moves between seeds.
	anonLit := span*7/10 + rng.Int63n(span/20)
	useCase := &stmt{kind: "use-case", tenant: "default", sql: useCaseSQL}
	xyz := &stmt{kind: "xyz", tenant: "default", sql: "SELECT x, y, z FROM d"}
	group := &stmt{kind: "group-x", tenant: "default", sql: "SELECT x, AVG(z) AS za FROM d GROUP BY x"}
	deny := &stmt{kind: "deny", tenant: "default", sql: "SELECT user FROM d"}
	anon := &stmt{kind: "anon", tenant: "anon",
		sql: fmt.Sprintf("SELECT x, y, t FROM d WHERE t > %d", anonLit)}
	warm := []*stmt{useCase, xyz, group, deny, anon}
	return &workload{
		corpus: map[string]int{"trace_seconds": int(dur.Seconds()), "literal_pool": len(pool)},
		table:  "d",
		open:   open,
		tenants: []server.TenantConfig{{
			Name: "anon", Policy: paradise.Figure4Policy(), DefaultModule: "ActionFilter",
			Anon: paradise.AnonConfig{Method: paradise.AnonMondrian, K: 5},
		}},
		fixed:   append(append([]*stmt{}, warm...), pool...),
		warm:    warm,
		confirm: []*stmt{useCase, xyz, group, anon, pool[0]},
		mix: []choice{
			{4, one(useCase)},
			{4, one(xyz)},
			{4, one(group)},
			{5, func(r *rand.Rand) *stmt { return pool[r.Intn(len(pool))] }},
			{1, one(deny)},
			// 10%, so p95 falls inside the anonymized statement's latency
			// mode rather than on its edge.
			{2, one(anon)},
		},
		replay: scaled(o, 120, 12),
	}, nil
}

// bulkExport: the 100k-row bench table exported over the unrestricted
// tenant. NDJSON encoding and row materialisation dominate; every shape
// stays cached.
func bulkExport(o options) (*workload, error) {
	n := scaled(o, 100_000, 1000)
	all := &stmt{kind: "export-all", tenant: "open", sql: "SELECT x, y, z, t FROM d"}
	nested := &stmt{kind: "export-nested", tenant: "open",
		sql: "SELECT x, y FROM (SELECT x, y, z, t FROM d WHERE z < 2) WHERE x > y"}
	fixed := []*stmt{all, nested}
	return &workload{
		corpus:  map[string]int{"rows": n},
		table:   "d",
		open:    func() (*paradise.Store, error) { return experiments.SyntheticDB(n, o.seed), nil },
		fixed:   fixed,
		warm:    fixed,
		confirm: fixed,
		// One to three, dealt in decks of four: the median then falls
		// inside the nested export's latency mode and p95 inside the full
		// export's. Near 50/50 the median falls between the two modes and
		// jumps from one to the other between runs.
		mix:    []choice{{1, one(all)}, {3, one(nested)}},
		replay: scaled(o, 10, 4),
	}, nil
}
