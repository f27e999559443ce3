package engine

import (
	"context"
	"sync"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file is the morsel-driven parallel side of the engine. A query block
// whose streamable segment is per-row independent (scan, filter, join
// probe, projection, DISTINCT pre-pass, GROUP BY key computation) is
// compiled into a parSeg: a shared morsel source plus a list of per-worker
// stage factories. N workers pull morsels, run the fused stage pipeline
// over them, and hand the results to an order-preserving exchange that
// re-emits batches in morsel order. Single-table blocks whose work compiles
// columnar over a ColScanner never get here: they run vectorized at every
// parallelism (vecblock.go), so this path serves the blocks that compile
// declines — joins, derived inputs, row-only expressions, windows, sorts.
//
// The ordering discipline is what makes parallel execution invisible:
// because the exchange restores the serial pull order, every downstream
// consumer — DISTINCT merges, group-by merges, sort ties, the fragment
// chain's accounting, the facade's cursors — observes exactly the rows,
// in exactly the order, of serial execution, and per-group aggregate folds
// visit rows in the serial order so even float aggregates are bit-identical.
// Errors are delivered at the seq of the batch that raised them, so the
// first error surfaces at the same point in the stream as it would
// serially.
//
// What stays serial, by design:
//
//   - Blocks with a *streaming* LIMIT (no breaker below it). Their
//     early-termination guarantee — a LIMIT-n query reads O(n + batch)
//     rows from storage — would be destroyed by workers prefetching
//     morsels past the cutoff.
//   - Pipeline breakers' own materialized evaluation (sort, windows),
//     whose input production still parallelizes.
//   - The per-morsel source pull (one short critical section per batch)
//     and the exchange's in-order re-emission.

// batchFn transforms one morsel's rows inside a worker. It must not mutate
// the input batch (which may alias storage memory); it returns either the
// input untouched or a freshly allocated batch (see the ownership rules in
// schema's parallel contract).
type batchFn func(in schema.Rows) (schema.Rows, error)

// stageFactory builds one worker's instance of a stage. Factories are
// invoked once per worker, concurrently, and must only capture read-only
// compile artifacts; all mutable state (row environments, buffers, local
// dedup maps) is created inside.
type stageFactory func() batchFn

// keyFn is the optional keyed terminal stage of a worker pipeline: it
// returns the (possibly filtered) batch plus one key string per surviving
// row, for DISTINCT merges and GROUP BY partitioning.
type keyFn func(in schema.Rows) (schema.Rows, []string, error)

// keyFactory builds one worker's keyFn, under the same rules as
// stageFactory.
type keyFactory func() keyFn

// parSeg is a compiled streamable segment: where the morsels come from and
// what each worker does to them. Exactly one of ms (a columnar morsel
// source's claims, filtered and pivoted per worker) and it (any other
// input, shared via schema.ShareIterator) is set.
type parSeg struct {
	b  *binding
	ms schema.MorselSource
	it schema.RowIterator
	mk []stageFactory
}

// close releases an abandoned segment (compile error before any exchange
// took ownership).
func (s *parSeg) close() {
	if s.ms != nil {
		s.ms.Close()
	}
	if s.it != nil {
		s.it.Close()
	}
}

// source resolves the segment's morsel source.
func (s *parSeg) source() schema.MorselSource {
	if s.ms != nil {
		return s.ms
	}
	return schema.ShareIterator(s.it)
}

// iterator exposes the segment as a batch iterator: through an exchange
// when there is work to parallelize, directly otherwise (a bare
// pass-through segment gains nothing from workers).
func (s *parSeg) iterator(workers int) schema.RowIterator {
	if len(s.mk) == 0 {
		if s.it != nil {
			return s.it
		}
		// Sole consumer of the morsel source: closing the iterator must
		// close the source too (IterateMorsels alone only stops its own
		// partition).
		return &ownedMorselIter{RowIterator: schema.IterateMorsels(s.ms), ms: s.ms}
	}
	return &exchIter{x: newExchange(s, workers, nil)}
}

// ownedMorselIter is a single-partition view that owns its source.
type ownedMorselIter struct {
	schema.RowIterator
	ms schema.MorselSource
}

func (o *ownedMorselIter) Close() {
	o.RowIterator.Close()
	o.ms.Close()
}

// parcel is one processed morsel travelling from a worker to the exchange
// consumer: the transformed batch, optional per-row keys, or the error the
// serial pipeline would have surfaced at this position.
type parcel struct {
	rows schema.Rows
	keys []string
	err  error
}

// exchange runs N workers over a shared morsel source and re-emits their
// output parcels in morsel order. Workers run at most window parcels ahead
// of the consumer, bounding buffered memory; per-worker results are merged
// at the single consumer, which is where accounting-sensitive consumers
// (stage drains, group merges) observe them — in serial order.
type exchange struct {
	src     schema.MorselSource
	mk      []stageFactory
	kf      keyFactory
	workers int
	window  int

	mu      sync.Mutex
	cond    *sync.Cond
	buf     map[int]*parcel
	next    int // next seq to emit
	active  int // workers still running
	started bool
	stopped bool
	wg      sync.WaitGroup
}

func newExchange(seg *parSeg, workers int, kf keyFactory) *exchange {
	if workers < 1 {
		workers = 1
	}
	x := &exchange{
		src:     seg.source(),
		mk:      seg.mk,
		kf:      kf,
		workers: workers,
		window:  2*workers + 2,
		buf:     make(map[int]*parcel),
	}
	x.cond = sync.NewCond(&x.mu)
	return x
}

// start spawns the workers; called lazily on the first pull so an opened
// but never-consumed pipeline costs nothing and a pre-pull Close has
// nothing to unwind.
func (x *exchange) start() {
	x.mu.Lock()
	if x.started || x.stopped {
		x.mu.Unlock()
		return
	}
	x.started = true
	x.active = x.workers
	x.mu.Unlock()
	for w := 0; w < x.workers; w++ {
		x.wg.Add(1)
		go x.worker()
	}
}

func (x *exchange) worker() {
	defer x.wg.Done()
	defer func() {
		x.mu.Lock()
		x.active--
		if x.active == 0 {
			x.cond.Broadcast()
		}
		x.mu.Unlock()
	}()

	fns := make([]batchFn, len(x.mk))
	for i, mk := range x.mk {
		fns[i] = mk()
	}
	var kf keyFn
	if x.kf != nil {
		kf = x.kf()
	}

	for {
		m, err := x.src.NextMorsel()
		if err != nil {
			x.deliver(m.Seq, &parcel{err: err})
			return
		}
		if m.Rows == nil {
			return
		}
		rows := m.Rows
		var keys []string
		for _, fn := range fns {
			rows, err = fn(rows)
			if err != nil {
				break
			}
		}
		if err == nil && kf != nil && len(rows) > 0 {
			rows, keys, err = kf(rows)
		}
		if err != nil {
			x.deliver(m.Seq, &parcel{err: err})
			return
		}
		// Every claimed seq is delivered — even an empty batch — so the
		// emission order stays contiguous.
		x.deliver(m.Seq, &parcel{rows: rows, keys: keys})
	}
}

// deliver hands one parcel to the reorder buffer, waiting while the worker
// is too far ahead of the consumer.
func (x *exchange) deliver(seq int, p *parcel) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for !x.stopped && seq >= x.next+x.window {
		x.cond.Wait()
	}
	if x.stopped {
		return
	}
	x.buf[seq] = p
	x.cond.Broadcast()
}

// nextParcel returns the next parcel in morsel order, or ok=false once the
// stream is exhausted or the exchange closed. Single-consumer.
func (x *exchange) nextParcel() (*parcel, bool) {
	x.start()
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.stopped {
			return nil, false
		}
		if p, ok := x.buf[x.next]; ok {
			delete(x.buf, x.next)
			x.next++
			x.cond.Broadcast() // release window-blocked workers
			return p, true
		}
		if x.active == 0 && x.started {
			return nil, false
		}
		x.cond.Wait()
	}
}

// close stops the exchange: workers are released, the morsel source is
// closed (which for stage outputs triggers the drain-on-close accounting),
// and close blocks until every worker has exited, so no goroutine outlives
// the pipeline. Idempotent.
func (x *exchange) close() {
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.stopped = true
	x.cond.Broadcast()
	x.mu.Unlock()
	x.src.Close()
	x.wg.Wait()
}

// exchIter is the plain iterator face of an exchange: batches come out in
// serial order, empty parcels are skipped, the first error ends the
// stream at its serial position.
type exchIter struct {
	x    *exchange
	err  error
	done bool
}

func (e *exchIter) Next() (schema.Rows, error) {
	if e.done {
		return nil, e.err
	}
	for {
		p, ok := e.x.nextParcel()
		if !ok {
			e.done = true
			e.x.close()
			return nil, nil
		}
		if p.err != nil {
			e.done, e.err = true, p.err
			e.x.close()
			return nil, e.err
		}
		if len(p.rows) > 0 {
			return p.rows, nil
		}
	}
}

func (e *exchIter) Close() {
	e.done = true
	e.x.close()
}

// distinctMergeIter merges worker streams for DISTINCT: workers pre-dedup
// their own streams and attach keys (distinctKeys); the merge keeps the
// first global occurrence. Because parcels arrive in serial order, the
// surviving row set and its order are identical to the serial operator.
type distinctMergeIter struct {
	x    *exchange
	seen map[string]bool
	err  error
	done bool
}

func (d *distinctMergeIter) Next() (schema.Rows, error) {
	if d.done {
		return nil, d.err
	}
	for {
		p, ok := d.x.nextParcel()
		if !ok {
			d.done = true
			d.x.close()
			return nil, nil
		}
		if p.err != nil {
			d.done, d.err = true, p.err
			d.x.close()
			return nil, d.err
		}
		// In-place compaction is safe: keyed parcels are worker-allocated
		// and ownership transferred with the parcel.
		out := p.rows[:0]
		for i, r := range p.rows {
			if !d.seen[p.keys[i]] {
				d.seen[p.keys[i]] = true
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (d *distinctMergeIter) Close() {
	d.done = true
	d.x.close()
}

// --- Per-worker stage factories -------------------------------------------

// scanStage fuses a scan's pushed predicate and projection into the worker
// pipeline: the morsel source hands out raw batches, each worker filters
// and projects its own morsels. Mirrors schema's scanIterator semantics
// (filter over the full-width row, then projection backed by one fresh
// array per batch).
func scanStage(full *binding, conds []sqlparser.Expr, cols []int) stageFactory {
	var cond sqlparser.Expr
	if len(conds) > 0 {
		cond = sqlparser.AndAll(conds)
	}
	return func() batchFn {
		var env *rowEnv
		if cond != nil {
			env = (&rowEnv{b: full}).reuse()
		}
		return func(in schema.Rows) (schema.Rows, error) {
			if cond == nil && cols == nil {
				return in, nil
			}
			var vals []schema.Value
			if cols != nil {
				vals = make([]schema.Value, 0, len(in)*len(cols))
			}
			out := make(schema.Rows, 0, len(in))
			for _, r := range in {
				if cond != nil {
					env.row = r
					ok, err := truthy(env, cond)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				if cols != nil {
					start := len(vals)
					for _, c := range cols {
						vals = append(vals, r[c])
					}
					r = vals[start:len(vals):len(vals)]
				}
				out = append(out, r)
			}
			return out, nil
		}
	}
}

// filterStage drops rows failing a residual condition (filters above a
// join or derived table).
func filterStage(b *binding, cond sqlparser.Expr) stageFactory {
	return func() batchFn {
		env := (&rowEnv{b: b}).reuse()
		return func(in schema.Rows) (schema.Rows, error) {
			out := make(schema.Rows, 0, len(in))
			for _, r := range in {
				env.row = r
				ok, err := truthy(env, cond)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, r)
				}
			}
			return out, nil
		}
	}
}

// projStage evaluates a non-identity select list, one fresh backing array
// per batch (mirrors projIter).
func projStage(p *projector, b *binding) stageFactory {
	return func() batchFn {
		env := (&rowEnv{b: b}).reuse()
		return func(in schema.Rows) (schema.Rows, error) {
			nc := len(p.cols)
			vals := make([]schema.Value, len(in)*nc)
			out := make(schema.Rows, 0, len(in))
			for i, r := range in {
				env.row = r
				orow := vals[i*nc : (i+1)*nc : (i+1)*nc]
				if err := p.projectInto(env, orow); err != nil {
					return nil, err
				}
				out = append(out, orow)
			}
			return out, nil
		}
	}
}

// hashProbeStage probes the shared read-only partitioned build index with
// this worker's morsels (mirrors hashJoinIter).
func hashProbeStage(ix *joinIndex, rrows schema.Rows, eqL []int, rest []sqlparser.Expr, cb *binding, leftJoin bool, nullR schema.Row) stageFactory {
	return func() batchFn {
		env := (&rowEnv{b: cb}).reuse()
		var kbuf []byte
		return func(in schema.Rows) (schema.Rows, error) {
			out := make(schema.Rows, 0, len(in))
			for _, lr := range in {
				matched := false
				kbuf = lr.AppendGroupKey(kbuf[:0], eqL)
				for _, ri := range ix.lookup(kbuf) {
					combined := joinRow(lr, rrows[ri])
					ok, err := residualOK(env, combined, rest)
					if err != nil {
						return nil, err
					}
					if ok {
						out = append(out, combined)
						matched = true
					}
				}
				if !matched && leftJoin {
					out = append(out, joinRow(lr, nullR))
				}
			}
			return out, nil
		}
	}
}

// loopProbeStage is the nested-loop fallback (nil on = cross join),
// mirroring loopJoinIter.
func loopProbeStage(rrows schema.Rows, on sqlparser.Expr, cb *binding, leftJoin bool, nullR schema.Row) stageFactory {
	return func() batchFn {
		env := (&rowEnv{b: cb}).reuse()
		return func(in schema.Rows) (schema.Rows, error) {
			out := make(schema.Rows, 0, len(in))
			for _, lr := range in {
				matched := false
				for _, rr := range rrows {
					combined := joinRow(lr, rr)
					ok := true
					if on != nil {
						env.row = combined
						var err error
						ok, err = truthy(env, on)
						if err != nil {
							return nil, err
						}
					}
					if ok {
						out = append(out, combined)
						matched = true
					}
				}
				if !matched && leftJoin {
					out = append(out, joinRow(lr, nullR))
				}
			}
			return out, nil
		}
	}
}

// distinctKeys is the keyed terminal stage for parallel DISTINCT: each
// worker computes row keys and drops repeats within its own stream (a
// later duplicate can never be the global first occurrence, so local
// pre-deduplication is always safe). The cross-worker merge happens in
// distinctMergeIter.
func distinctKeys() keyFactory {
	return func() keyFn {
		var idx []int
		var kbuf []byte
		local := make(map[string]bool)
		return func(in schema.Rows) (schema.Rows, []string, error) {
			out := make(schema.Rows, 0, len(in))
			keys := make([]string, 0, len(in))
			for _, r := range in {
				if idx == nil {
					idx = allIndexes(len(r))
				}
				kbuf = r.AppendGroupKey(kbuf[:0], idx)
				if local[string(kbuf)] {
					continue
				}
				// Only a first occurrence materializes its key string — it
				// is needed across batches (the local set and the merge).
				k := string(kbuf)
				local[k] = true
				out = append(out, r)
				keys = append(keys, k)
			}
			return out, keys, nil
		}
	}
}

// groupKeys is the keyed terminal stage for parallel GROUP BY: workers
// evaluate the grouping expressions for their morsels (the expensive part
// of grouping), producing the same key strings buildGroups would.
func groupKeys(b *binding, exprs []sqlparser.Expr) keyFactory {
	return func() keyFn {
		env := (&rowEnv{b: b}).reuse()
		var kbuf []byte
		return func(in schema.Rows) (schema.Rows, []string, error) {
			keys := make([]string, len(in))
			for i, r := range in {
				env.row = r
				kbuf = kbuf[:0]
				for _, ex := range exprs {
					v, err := evalExpr(env, ex)
					if err != nil {
						return nil, nil, err
					}
					kbuf = v.AppendGroupKey(kbuf)
				}
				keys[i] = string(kbuf)
			}
			return in, keys, nil
		}
	}
}

// --- Partitioned hash-join build ------------------------------------------

// joinIndex is a hash index over the build side, partitioned by key hash so
// it can be built by P workers without locking and probed lock-free (the
// partitions are immutable after the build barrier).
type joinIndex struct {
	parts []map[string][]int
}

func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// buildJoinIndex builds the probe index over the materialized build rows.
// Phase 1 computes keys and hashes in parallel row ranges; phase 2 lets
// each partition's worker insert exactly the rows hashing to it, scanning
// the shared key array in row order so per-key row lists match the serial
// build order.
func buildJoinIndex(rrows schema.Rows, eqR []int, workers int) *joinIndex {
	n := len(rrows)
	if workers < 2 || n < 2*schema.DefaultBatchSize {
		// Small build sides: one partition, built serially.
		m := make(map[string][]int, n)
		var kbuf []byte
		for ri, rr := range rrows {
			kbuf = rr.AppendGroupKey(kbuf[:0], eqR)
			m[string(kbuf)] = append(m[string(kbuf)], ri)
		}
		return &joinIndex{parts: []map[string][]int{m}}
	}

	keys := make([]string, n)
	hs := make([]uint32, n)
	parallelRanges(n, workers, func(lo, hi int) {
		var kbuf []byte
		for i := lo; i < hi; i++ {
			kbuf = rrows[i].AppendGroupKey(kbuf[:0], eqR)
			keys[i] = string(kbuf)
			hs[i] = fnv32a(keys[i])
		}
	})
	return &joinIndex{parts: partitionKeyIndex(keys, hs, workers)}
}

// partitionKeyIndex is phase 2 of the partitioned build (shared with the
// columnar build in vecjoin.go): each partition's worker inserts exactly
// the rows hashing to it, scanning the shared key array in row order so
// per-key row lists match the serial build order.
func partitionKeyIndex(keys []string, hs []uint32, workers int) []map[string][]int {
	n := len(keys)
	parts := make([]map[string][]int, workers)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := make(map[string][]int, n/workers+1)
			// Modulo in uint32: int(hs[i]) % workers would go negative on
			// 32-bit platforms for hashes >= 2^31.
			for i := 0; i < n; i++ {
				if hs[i]%uint32(workers) == uint32(p) {
					m[keys[i]] = append(m[keys[i]], i)
				}
			}
			parts[p] = m
		}(p)
	}
	wg.Wait()
	return parts
}

// lookup probes by raw key bytes: the string(key) map accesses compile
// allocation-free, so probing never copies the key.
func (ix *joinIndex) lookup(key []byte) []int {
	if len(ix.parts) == 1 {
		return ix.parts[0][string(key)]
	}
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return ix.parts[h%uint32(len(ix.parts))][string(key)]
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn over them concurrently, returning when all are done.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers < 2 || n < 2 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// --- Parallel compilation --------------------------------------------------

// parallelizable reports whether a block may take the parallel path: a
// streaming LIMIT (no breaker below it) keeps the serial pipeline so its
// early-termination guarantee — O(n + batch) rows read from storage —
// survives; everything else is eligible.
func (e *Engine) parallelizable(blk *plan.Block) bool {
	if e.par < 2 {
		return false
	}
	streamingLimit := blk.Limit != nil && blk.Agg == nil && blk.Win == nil && blk.Sort == nil
	return !streamingLimit
}

// openBlockParallel compiles one query block onto the worker pipeline.
// ok=false (with no error and nothing opened) means the block shape is not
// worth parallelizing and the caller should take the serial path.
func (e *Engine) openBlockParallel(ctx context.Context, blk *plan.Block, src plan.Node) (*schema.Relation, schema.RowIterator, bool, error) {
	seg, ok, err := e.openParSource(ctx, src, blk)
	if err != nil {
		return nil, nil, true, err
	}
	if !ok {
		return nil, nil, false, nil
	}

	if blk.Agg != nil {
		rel, rows, err := e.evalGroupedParallel(blk, seg)
		if err != nil {
			return nil, nil, true, err
		}
		return rel, schema.WithContext(ctx, schema.IterateRows(rows, schema.DefaultBatchSize)), true, nil
	}
	if blk.Win != nil || blk.Sort != nil {
		// The breaker evaluation stays serial, but its input is produced by
		// the workers; the exchange's ordering makes the materialized input
		// — and therefore sort ties and window frames — identical to serial.
		rel, rows, err := e.evalBroken(blk, seg.b, seg.iterator(e.par))
		if err != nil {
			return nil, nil, true, err
		}
		return rel, schema.WithContext(ctx, schema.IterateRows(rows, schema.DefaultBatchSize)), true, nil
	}

	p, err := buildProjector(blk.Items(), seg.b)
	if err != nil {
		seg.close()
		return nil, nil, true, err
	}
	if !p.identity {
		// An all-plain-column projection directly over a vectorized join
		// (no intervening worker stages — residual filters would see the
		// combined layout) folds into the join's output gather.
		retargeted := false
		if vm, ok := seg.ms.(*vecJoinMorsels); ok && len(seg.mk) == 0 {
			if om, omOK := projOutMap(p); omOK {
				vm.core.retarget(om)
				retargeted = true
			}
		}
		if !retargeted {
			seg.mk = append(seg.mk, projStage(p, seg.b))
		}
	}
	var out schema.RowIterator
	if blk.Distinct != nil {
		out = &distinctMergeIter{x: newExchange(seg, e.par, distinctKeys()), seen: make(map[string]bool)}
	} else {
		out = seg.iterator(e.par)
	}
	// blk.Limit is nil here: streaming-limit blocks never take this path.
	return p.rel, schema.WithContext(ctx, out), true, nil
}

// openParSource compiles a block's source node into a segment, mirroring
// openSource. Residual block filters become worker stages (single-relation
// scans fold them into the scan stage itself).
func (e *Engine) openParSource(ctx context.Context, src plan.Node, blk *plan.Block) (*parSeg, bool, error) {
	if s, ok := src.(*plan.Scan); ok {
		seg, err := e.openParScan(ctx, s, blk) // folds the filters into the scan stage
		return seg, true, err
	}
	filters := blk.FilterConds()
	switch x := src.(type) {
	case *plan.Values:
		// A single synthetic row: nothing to parallelize.
		return nil, false, nil
	case *plan.Derived:
		rel, it, err := e.openBlock(ctx, x.Input)
		if err != nil {
			return nil, true, err
		}
		seg := &parSeg{b: bindingFromRelation(rel, x.Alias), it: it}
		seg.addFilters(filters)
		return seg, true, nil
	case *plan.Join:
		seg, ok, err := e.openParJoin(ctx, x)
		if err != nil || !ok {
			return nil, ok, err
		}
		seg.addFilters(filters)
		return seg, true, nil
	default:
		rel, it, err := e.openBlock(ctx, src)
		if err != nil {
			return nil, true, err
		}
		seg := &parSeg{b: bindingFromRelation(rel, ""), it: it}
		seg.addFilters(filters)
		return seg, true, nil
	}
}

func (s *parSeg) addFilters(conds []sqlparser.Expr) {
	for _, c := range conds {
		s.mk = append(s.mk, filterStage(s.b, c))
	}
}

// openParScan is the parallel counterpart of openPlanScan: the source is
// opened raw (no filter, no projection) as a morsel source, and the scan's
// predicate, residual filters and pruned projection run per worker.
func (e *Engine) openParScan(ctx context.Context, s *plan.Scan, blk *plan.Block) (*parSeg, error) {
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, err
	}
	qual := s.Table
	if s.Alias != "" {
		qual = s.Alias
	}
	full := bindingFromRelation(rel, qual)

	filters := blk.FilterConds()
	conds := make([]sqlparser.Expr, 0, 1+len(filters))
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	conds = append(conds, filters...)

	b := full
	cols := e.scanColumns(s, blk, full)
	if cols != nil {
		b = bindingFromRelation(rel.Project(cols), qual)
	}

	seg := &parSeg{b: b}

	// A columnar morsel source runs the filter kernels and the survivor
	// pivot on each claiming worker, so the scan stage disappears. When the
	// filter cannot be compiled columnar, the workers pivot full-width
	// windows (a storage row-view gather) and the scan stage filters and
	// projects them.
	if cs, ok := e.src.(ColScanner); ok {
		p, pok := compileVecScan(rel, qual, full, conds, cols)
		if !pok {
			p, _ = compileVecScan(rel, qual, full, nil, nil)
			seg.mk = append(seg.mk, scanStage(full, conds, cols))
		}
		ms, err := cs.OpenColMorsels(ctx, s.Table, p.colScan(rel.Arity()))
		if err != nil {
			return nil, err
		}
		seg.ms = &vecMorsels{src: ms, p: p}
		return seg, nil
	}

	it, err := OpenScan(ctx, e.src, s.Table, schema.Scan{})
	if err != nil {
		return nil, err
	}
	seg.it = it
	if len(conds) > 0 || cols != nil {
		seg.mk = append(seg.mk, scanStage(full, conds, cols))
	}
	return seg, nil
}

// openParJoin compiles a join onto the worker pipeline: the build (right)
// side is materialized and indexed by partitioned parallel build, the
// probe (left) side extends its segment with a probe stage so each worker
// probes its own morsels against the shared immutable index.
func (e *Engine) openParJoin(ctx context.Context, j *plan.Join) (*parSeg, bool, error) {
	if seg, handled, err := e.openParVecJoin(ctx, j); handled || err != nil {
		return seg, handled, err
	}
	left, ok, err := e.openParJoinSide(ctx, j.Left)
	if err != nil || !ok {
		return nil, ok, err
	}
	rb, rit, err := e.openJoinSide(ctx, j.Right)
	if err != nil {
		left.close()
		return nil, true, err
	}
	rrows, err := schema.DrainIterator(rit)
	if err != nil {
		left.close()
		return nil, true, err
	}
	return e.parJoinFromBuild(j, left, rb, rrows), true, nil
}

// parJoinFromBuild appends the row-path probe stage for an already-drained
// build side, shared by openParJoin and openParVecJoin's late declines.
func (e *Engine) parJoinFromBuild(j *plan.Join, left *parSeg, rb *binding, rrows schema.Rows) *parSeg {
	lb := left.b
	cb := lb.concat(rb)
	seg := left
	seg.b = cb

	if j.Type == sqlparser.JoinCross {
		seg.mk = append(seg.mk, loopProbeStage(rrows, nil, cb, false, nil))
		return seg
	}

	eqL, eqR, rest := splitEquiJoin(j.On, lb, rb)
	if len(eqL) > 0 {
		ix := buildJoinIndex(rrows, eqR, e.par)
		seg.mk = append(seg.mk, hashProbeStage(ix, rrows, eqL, rest, cb,
			j.Type == sqlparser.JoinLeft, nullRow(len(rb.cols))))
		return seg
	}
	seg.mk = append(seg.mk, loopProbeStage(rrows, j.On, cb,
		j.Type == sqlparser.JoinLeft, nullRow(len(rb.cols))))
	return seg
}

// openParJoinSide compiles one probe-side input, mirroring openJoinSide.
func (e *Engine) openParJoinSide(ctx context.Context, n plan.Node) (*parSeg, bool, error) {
	switch x := n.(type) {
	case *plan.Scan:
		seg, err := e.openParScan(ctx, x, &plan.Block{})
		return seg, true, err
	case *plan.Derived:
		rel, it, err := e.openBlock(ctx, x.Input)
		if err != nil {
			return nil, true, err
		}
		return &parSeg{b: bindingFromRelation(rel, x.Alias), it: it}, true, nil
	case *plan.Join:
		return e.openParJoin(ctx, x)
	case *plan.Filter:
		seg, ok, err := e.openParJoinSide(ctx, x.Input)
		if err != nil || !ok {
			return nil, ok, err
		}
		seg.mk = append(seg.mk, filterStage(seg.b, x.Cond))
		return seg, true, nil
	default:
		rel, it, err := e.openBlock(ctx, n)
		if err != nil {
			return nil, true, err
		}
		return &parSeg{b: bindingFromRelation(rel, ""), it: it}, true, nil
	}
}

// --- Parallel grouped evaluation ------------------------------------------

// evalGroupedParallel is the partitioned aggregation path: workers compute
// group keys morsel-parallel, the merge partitions rows into groups in
// serial order (so each group's row list is exactly the serial one), and
// per-group aggregate folds + HAVING + projection run group-parallel. The
// merge order makes group output order — and, because every group folds
// its rows in serial order, every aggregate value — bit-identical to
// serial execution.
func (e *Engine) evalGroupedParallel(blk *plan.Block, seg *parSeg) (*schema.Relation, schema.Rows, error) {
	groupBy := blk.GroupBy()
	var kf keyFactory
	if len(groupBy) > 0 {
		kf = groupKeys(seg.b, groupBy)
	}
	x := newExchange(seg, e.par, kf)
	groups, err := collectGroups(x, len(groupBy) == 0)
	if err != nil {
		return nil, nil, err
	}

	// Deliberately after the drain: the serial path (evalBroken →
	// evalGrouped) also drains the whole input before validating the select
	// list, so a query with both a scan error and an invalid grouped select
	// list surfaces the same error either way.
	aggCalls, rel, err := groupSpecCompile(blk, seg.b)
	if err != nil {
		return nil, nil, err
	}
	out, err := e.evalGroupsParallel(blk, seg.b, aggCalls, rel, groups)
	if err != nil {
		return nil, nil, err
	}
	return e.finishBroken(blk, seg.b, out, nil)
}

// collectGroups drains the exchange in morsel order, partitioning rows
// into groups by the worker-computed keys (or into the single implicit
// group when the block has no GROUP BY — which exists even for empty
// input, so COUNT(*) over nothing yields 0, exactly like buildGroups).
func collectGroups(x *exchange, single bool) ([]*group, error) {
	defer x.close()
	index := make(map[string]*group)
	var order []*group
	if single {
		order = []*group{{}}
	}
	for {
		p, ok := x.nextParcel()
		if !ok {
			return order, nil
		}
		if p.err != nil {
			return nil, p.err
		}
		if single {
			g := order[0]
			for _, r := range p.rows {
				if g.rep == nil {
					g.rep = r
				}
				g.rows = append(g.rows, r)
			}
			continue
		}
		for i, r := range p.rows {
			key := p.keys[i]
			g, ok := index[key]
			if !ok {
				g = &group{rep: r}
				index[key] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, r)
		}
	}
}

// evalGroupsParallel evaluates aggregates, HAVING and the select list for
// contiguous chunks of groups concurrently. Output slots are per-group, so
// the compacted result preserves group order; on errors the lowest group
// index wins, matching the group at which serial evaluation would stop.
func (e *Engine) evalGroupsParallel(blk *plan.Block, b *binding, aggCalls []*sqlparser.FuncCall, rel *schema.Relation, groups []*group) (*Result, error) {
	n := len(groups)
	workers := e.par
	if workers > n {
		workers = n
	}
	if workers < 2 {
		env := (&rowEnv{b: b}).reuse()
		out := make(schema.Rows, 0, n)
		for _, g := range groups {
			row, keep, err := evalOneGroup(b, env, blk, aggCalls, g)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
		return &Result{Schema: rel, Rows: out}, nil
	}

	rows := make(schema.Rows, n)
	keep := make([]bool, n)
	errIdx := make([]int, workers)
	errs := make([]error, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			env := (&rowEnv{b: b}).reuse()
			for gi := lo; gi < hi; gi++ {
				row, ok, err := evalOneGroup(b, env, blk, aggCalls, groups[gi])
				if err != nil {
					errIdx[w], errs[w] = gi, err
					return
				}
				rows[gi], keep[gi] = row, ok
			}
			errIdx[w] = n
		}(w, lo, hi)
	}
	wg.Wait()

	firstErr := error(nil)
	firstIdx := n
	for w := range errs {
		if errs[w] != nil && errIdx[w] < firstIdx {
			firstIdx, firstErr = errIdx[w], errs[w]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(schema.Rows, 0, n)
	for gi := 0; gi < n; gi++ {
		if keep[gi] {
			out = append(out, rows[gi])
		}
	}
	return &Result{Schema: rel, Rows: out}, nil
}
