package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	paradise "paradise"
	"paradise/server"
)

// clients is the number of closed-loop callers: the assistive app and the
// cloud analysis, one per CPU of the reference two-core machine.
const clients = 2

// env is one served corpus: store, server, listener and the reference
// sessions the expected answers come from.
type env struct {
	w       *workload
	store   *paradise.Store
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	tenants map[string]server.TenantConfig
	// ref are reference sessions configured like the serving tenants,
	// without the shared plan cache.
	ref map[string]*paradise.Session
}

// start builds or recovers the corpus, starts the server on a loopback
// port exactly as cmd/paradised configures it by default, and warms the
// plan cache. It is what setup_s times.
func start(w *workload) (*env, error) {
	store, err := w.open()
	if err != nil {
		return nil, fmt.Errorf("open corpus: %w", err)
	}
	tcs := append([]server.TenantConfig{
		{Name: "default", Policy: paradise.Figure4Policy(), DefaultModule: "ActionFilter", Journal: paradise.NewJournal()},
		{Name: "open"},
	}, w.tenants...)
	srv, err := server.New(server.Config{Store: store, Tenants: tcs, MaxQueryDuration: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, store: store, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), tenants: map[string]server.TenantConfig{},
		ref: map[string]*paradise.Session{}}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, tc := range tcs {
		e.tenants[tc.Name] = tc
		sess, err := paradise.Open(store, sessionOptions(tc, nil)...)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.ref[tc.Name] = sess
	}
	c := newClient(e.base)
	defer c.close()
	for _, st := range w.warm {
		if _, err := c.query(context.Background(), st); err != nil {
			e.stop()
			return nil, fmt.Errorf("warm %q: %w", st.sql, err)
		}
	}
	return e, nil
}

// sessionOptions mirrors how server.New opens a tenant's session.
func sessionOptions(tc server.TenantConfig, cache *paradise.PlanCache) []paradise.Option {
	opts := []paradise.Option{paradise.WithParallelism(0)}
	if cache != nil {
		opts = append(opts, paradise.WithPlanCache(cache))
	}
	if tc.Policy != nil {
		opts = append(opts, paradise.WithPolicy(tc.Policy))
	}
	if tc.DefaultModule != "" {
		opts = append(opts, paradise.WithDefaultModule(tc.DefaultModule))
	}
	if tc.Anon.Method != "" && tc.Anon.Method != paradise.AnonNone {
		opts = append(opts, paradise.WithAnonymization(tc.Anon))
	}
	return opts
}

// stop drains the server and waits for its serve loop to end.
func (e *env) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	e.hs.Shutdown(ctx)
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// sample is one request of the timed phase.
type sample struct {
	kind    string
	latency time.Duration
	// at is when the answer was read, from the start of the timed phase.
	at     time.Duration
	ok     bool
	rows   int
	egress int
	link   int
}

// phase is the outcome of the timed phase.
type phase struct {
	elapsed  time.Duration
	samples  []sample
	failures []string
	heapPeak uint64
	// Deltas over the phase.
	allocBytes, gcCPU, totalCPU float64
	cache                       paradise.PlanCacheStats
	storage                     paradise.StorageStats
	segments                    int
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return s.Value.Float64()
}

// timed runs the closed-loop clients (and the open-loop ingest, if any)
// for the given duration.
func (e *env) timed(seed int64, d time.Duration) (*phase, error) {
	ph := &phase{}
	rt0 := readRT()
	cache0 := e.srv.PlanCache().Stats()
	stor0 := e.store.StorageStats()

	// Heap sampler: the peak of live heap objects, every 5 ms.
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > ph.heapPeak {
				ph.heapPeak = v
			}
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
		}
	}()

	begin := time.Now()
	deadline := begin.Add(d)
	if e.w.ingest != nil {
		if err := e.w.ingest.start(e.store, deadline); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(e.base)
			defer c.close()
			seq := e.w.sequence(seed, i)
			var local []sample
			var fails []string
			for time.Now().Before(deadline) {
				st := seq.next()
				s := sample{kind: st.kind}
				r, err := c.query(context.Background(), st)
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s: %v", st.kind, err))
					local = append(local, s)
					continue
				}
				s.latency = r.latency
				why := st.want.verdict(r)
				if why == "" && r.trailer != nil {
					s.egress = r.trailer.EgressBytes
					if s.link, err = trailerLinkBytes(r.trailer); err != nil {
						why = err.Error()
					}
				}
				if why != "" {
					fails = append(fails, fmt.Sprintf("%s %q: %s", st.kind, st.sql, why))
				} else {
					s.ok, s.rows = true, r.rows.Rows
				}
				local = append(local, s)
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			ph.failures = append(ph.failures, fails...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(begin)
	var ingestErr error
	if e.w.ingest != nil {
		ingestErr = e.w.ingest.halt()
	}
	close(stopSampler)
	samplerDone.Wait()
	if ingestErr != nil {
		return nil, ingestErr
	}

	rt1 := readRT()
	ph.allocBytes = rtValue(rt1[0]) - rtValue(rt0[0])
	ph.gcCPU = rtValue(rt1[1]) - rtValue(rt0[1])
	ph.totalCPU = rtValue(rt1[2]) - rtValue(rt0[2])
	cache1 := e.srv.PlanCache().Stats()
	ph.cache.Hits = cache1.Hits - cache0.Hits
	ph.cache.Misses = cache1.Misses - cache0.Misses
	stor1 := e.store.StorageStats()
	ph.storage.SegmentsScanned = stor1.SegmentsScanned - stor0.SegmentsScanned
	ph.storage.SegmentsSkipped = stor1.SegmentsSkipped - stor0.SegmentsSkipped
	ph.storage.SegmentsOpened = stor1.SegmentsOpened - stor0.SegmentsOpened
	ph.segments = stor1.Segments - stor0.Segments
	return ph, nil
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the reproducibility record printed before the result.
type info struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Corpus     map[string]int `json:"corpus"`
	Sequences  []string       `json:"statement_sequences"`
	Setups     []float64      `json:"setup_s_each"`
	Failures   []string       `json:"failures,omitempty"`
}

// sequenceDigests hashes the first statements of each client's seeded
// sequence (kind, tenant and SQL; live statements by kind only, since
// their window follows the ingest ledger).
func sequenceDigests(w *workload, seed int64) []string {
	out := make([]string, clients)
	for i := range out {
		seq := w.sequence(seed, i)
		h := fnv.New64a()
		for j := 0; j < 256; j++ {
			st := seq.next()
			io.WriteString(h, st.kind+"\x00"+st.tenant+"\x00")
			if st.kind != "live-count" {
				io.WriteString(h, st.sql)
			}
			h.Write([]byte{0})
		}
		out[i] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileMs returns the q-quantile of the durations in ms (nearest rank).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// bench runs one workload end to end and assembles the printed result.
func bench(o options, log io.Writer) (*result, *info, error) {
	began := time.Now()
	logf := func(format string, args ...any) {
		fmt.Fprintf(log, "perfbench: %6.2fs ", time.Since(began).Seconds())
		fmt.Fprintf(log, format+"\n", args...)
	}
	w, err := workloads[o.workload](o)
	if err != nil {
		return nil, nil, err
	}
	if w.prepare != nil {
		if err := w.prepare(); err != nil {
			return nil, nil, fmt.Errorf("prepare corpus: %w", err)
		}
	}
	if w.cleanup != nil {
		defer func() {
			if err := w.cleanup(); err != nil {
				fmt.Fprintln(log, "perfbench: cleanup:", err)
			}
		}()
	}
	inf := &info{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Corpus: w.corpus, Sequences: sequenceDigests(w, o.seed)}

	logf("corpus prepared")
	// Set-up, several times; the last instance serves the run.
	var e *env
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.stop()
		}
		runtime.GC()
		t0 := time.Now()
		e, err = start(w)
		if err != nil {
			return nil, nil, err
		}
		inf.Setups = append(inf.Setups, time.Since(t0).Seconds())
	}
	defer e.stop()
	if tab, err := e.store.Table(w.table); err == nil {
		inf.Corpus["table_rows"] = tab.Len()
	}

	logf("set-up x%d: %v s", o.setups, inf.Setups)
	// Expected answers, once, from Session.Process.
	ctx := context.Background()
	if err := answerAll(ctx, e, w.fixed); err != nil {
		return nil, nil, err
	}
	// Decode the first responses once to prove the digest comparison.
	c := newClient(e.base)
	c.keep = true
	for _, st := range w.confirm {
		r, err := c.query(ctx, st)
		if err != nil {
			return nil, nil, err
		}
		if why := st.want.verdict(r); why != "" {
			return nil, nil, fmt.Errorf("confirm %q: %s", st.sql, why)
		}
		out, err := e.ref[st.tenant].Process(ctx, st.sql)
		if err != nil {
			return nil, nil, err
		}
		if err := confirmDecoded(r.lines, out.Result.Rows); err != nil {
			return nil, nil, fmt.Errorf("confirm %q: %w", st.sql, err)
		}
	}
	c.close()
	logf("%d answers computed, %d confirmed by decoding", len(w.fixed), len(w.confirm))

	runtime.GC()
	ph, err := e.timed(o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	logf("timed phase: %d requests, %d failed", len(ph.samples), len(ph.failures))
	res := &result{Attempted: len(ph.samples), Failed: len(ph.failures), Metrics: map[string]metric{}}
	inf.Failures = ph.failures[:min(len(ph.failures), 20)]
	var lay *layerResult
	if o.trace {
		if lay, err = replay(ctx, e, o, log); err != nil {
			return nil, nil, err
		}
		if lay.mismatch != "" {
			inf.Failures = append(inf.Failures, "replay: "+lay.mismatch)
		}
		logf("replay: %d statements", lay.statements)
	}
	if w.finish != nil {
		if err := w.finish(e); err != nil {
			inf.Failures = append(inf.Failures, err.Error())
		}
	}
	logf("checks done")
	if o.trace {
		addLayerMetrics(res, w, ph, lay)
	} else {
		addEndToEnd(res, inf, ph)
	}
	res.Correct = len(inf.Failures) == 0 && res.Attempted > 0
	return res, inf, nil
}

// answerAll computes the expected answer of every fixed statement, on as
// many goroutines as there are CPUs.
func answerAll(ctx context.Context, e *env, stmts []*stmt) error {
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(stmts); i += len(errs) {
				st := stmts[i]
				a, err := expect(ctx, e.ref[st.tenant], st.sql)
				if err != nil {
					errs[g] = err
					return
				}
				if e.w.rawGrows {
					a.raw = 0
				}
				st.want = a
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// addEndToEnd fills the end-to-end metrics.
func addEndToEnd(res *result, inf *info, ph *phase) {
	var lat []time.Duration
	var okN, rows, egressN int
	var egress, link float64
	for _, s := range ph.samples {
		if s.latency > 0 {
			lat = append(lat, s.latency)
		}
		if !s.ok {
			continue
		}
		okN++
		rows += s.rows
		if s.kind != "deny" {
			egress += float64(s.egress)
			link += float64(s.link)
			egressN++
		}
	}
	sec := ph.elapsed.Seconds()
	set := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	set("setup_s", median(inf.Setups))
	set("query_p50_ms", quantileMs(lat, 0.50))
	set("query_p95_ms", quantileMs(lat, 0.95))
	set("throughput_qps", float64(okN)/sec)
	set("rows_per_s", float64(rows)/sec)
	set("egress_bytes_per_query", ratio(egress, float64(egressN)))
	set("link_bytes_per_query", ratio(link, float64(egressN)))
	set("heap_peak_mb", float64(ph.heapPeak)/(1<<20))
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":                "s",
	"query_p50_ms":           "ms",
	"query_p95_ms":           "ms",
	"throughput_qps":         "1/s",
	"rows_per_s":             "rows/s",
	"egress_bytes_per_query": "B",
	"link_bytes_per_query":   "B",
	"heap_peak_mb":           "MB",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
