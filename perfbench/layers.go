package main

import "time"

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"sqlparser.parse_us":                   "us",
	"rewrite.rewrite_us":                   "us",
	"rewrite.denials_per_query":            "ratio",
	"plan.lower_us":                        "us",
	"fragment.fragment_us":                 "us",
	"fragment.place_us":                    "us",
	"fragment.stages_per_query":            "count",
	"core.plan_cache_hit_ratio":            "ratio",
	"network.chain_ms":                     "ms",
	"engine.mono_ms":                       "ms",
	"network.chain_overhead_ms":            "ms",
	"network.boundary_rows_per_result_row": "ratio",
	"storage.scan_ms":                      "ms",
	"storage.segments_scanned_per_query":   "count",
	"storage.segments_skipped_per_query":   "count",
	"storage.segments_opened_per_query":    "count",
	"storage.append_ms":                    "ms",
	"storage.seals_per_s":                  "1/s",
	"storage.stored_bytes_per_row":         "B",
	"ingest.append_p50_ms":                 "ms",
	"ingest.append_p95_ms":                 "ms",
	"ingest.late_ms":                       "ms",
	"anonymize.anon_ms":                    "ms",
	"paradise.query_ms":                    "ms",
	"server.handle_ms":                     "ms",
	"server.encode_ms":                     "ms",
	"server.ndjson_bytes_per_row":          "B",
	"server.loopback_ms":                   "ms",
	"runtime.alloc_bytes_per_query":        "B",
	"runtime.gc_cpu_frac":                  "ratio",
	"trace.coverage":                       "ratio",
	"check.failed_frac":                    "ratio",
}

// addLayerMetrics fills the per-layer metrics from the traced replay and
// from the untraced phase's counters.
func addLayerMetrics(res *result, w *workload, ph *phase, lr *layerResult) {
	m := res.Metrics
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	tr := lr.tr
	us, ms := time.Microsecond, time.Millisecond

	set("sqlparser.parse_us", tr.mean("sqlparser.parse", us))
	set("rewrite.rewrite_us", tr.mean("rewrite.rewrite", us))
	set("rewrite.denials_per_query", ratio(float64(lr.denials), float64(lr.statements)))
	set("plan.lower_us", tr.mean("plan.lower", us))
	set("fragment.fragment_us", tr.mean("fragment.fragment", us))
	set("fragment.place_us", tr.mean("fragment.place", us))
	set("fragment.stages_per_query", ratio(float64(lr.stages), float64(lr.executed)))
	set("network.chain_ms", tr.mean("network.chain", ms))
	set("engine.mono_ms", tr.mean("engine.mono", ms))
	set("network.chain_overhead_ms", tr.mean("network.chain", ms)-tr.mean("engine.mono", ms))
	set("network.boundary_rows_per_result_row", ratio(float64(lr.boundaryRows), float64(lr.resultRows)))
	set("storage.scan_ms", tr.mean("storage.scan", ms))
	set("anonymize.anon_ms", tr.mean("anonymize.mondrian", ms))
	set("paradise.query_ms", tr.mean("paradise.query", ms))
	set("server.handle_ms", tr.mean("server.handle", ms))
	set("server.encode_ms", tr.mean("server.handle", ms)-tr.mean("paradise.query", ms))
	set("server.ndjson_bytes_per_row", ratio(float64(lr.ndjsonBytes), float64(lr.ndjsonRows)))
	set("server.loopback_ms", tr.mean("server.http", ms)-tr.mean("server.handle", ms))
	set("trace.coverage", ratio(float64(lr.covered), float64(lr.handled)))

	q := float64(len(ph.samples))
	set("core.plan_cache_hit_ratio", ratio(float64(ph.cache.Hits), float64(ph.cache.Hits+ph.cache.Misses)))
	set("storage.segments_scanned_per_query", ratio(float64(ph.storage.SegmentsScanned), q))
	set("storage.segments_skipped_per_query", ratio(float64(ph.storage.SegmentsSkipped), q))
	set("storage.segments_opened_per_query", ratio(float64(ph.storage.SegmentsOpened), q))
	set("storage.seals_per_s", float64(ph.segments)/ph.elapsed.Seconds())
	set("runtime.alloc_bytes_per_query", ratio(ph.allocBytes, q))
	set("runtime.gc_cpu_frac", ratio(ph.gcCPU, ph.totalCPU))
	set("check.failed_frac", ratio(float64(len(ph.failures)), q))

	var appendMean, stored float64
	if g := w.ingest; g != nil {
		stored = g.storedPerRow
		var sum time.Duration
		for _, d := range g.appendDur {
			sum += d
		}
		if len(g.appendDur) > 0 {
			appendMean = float64(sum) / float64(len(g.appendDur)) / float64(ms)
		}
		set("ingest.append_p50_ms", quantileMs(g.fromDue, 0.50))
		set("ingest.append_p95_ms", quantileMs(g.fromDue, 0.95))
		set("ingest.late_ms", quantileMs(g.late, 0.95))
	} else {
		set("ingest.append_p50_ms", 0)
		set("ingest.append_p95_ms", 0)
		set("ingest.late_ms", 0)
	}
	set("storage.append_ms", appendMean)
	set("storage.stored_bytes_per_row", stored)
}
