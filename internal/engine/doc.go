// Package engine executes logical query plans over in-memory relations. It
// is the query processor that runs — identically — on every node of the
// vertical architecture, from the cloud server down to an appliance; only
// the *fragment* of the query a node receives differs (capability
// enforcement happens in the fragment package, not here).
//
// The engine compiles a plan.Node tree (the shared logical IR produced by
// plan.FromAST and rewritten by plan.Optimize) block by block — the block
// decomposition and the column-requirement analysis behind scan pushdown
// both come from plan.Block, never re-derived here — into a pull-based,
// batch-at-a-time iterator pipeline (volcano with row batches): scans,
// filters, projections, join probes, DISTINCT and LIMIT stream; GROUP BY,
// window functions and ORDER BY are pipeline breakers that materialize
// their input. Scan nodes carry pruned column sets and pushed predicates
// into the source's scans, so unused columns never leave storage.
// Engine.Select drains the pipeline into a materialized Result; Engine.Open
// exposes the pipeline itself as row batches, and Engine.OpenBatches as
// column batches — the form fragment chains hand from stage to stage
// without holding whole intermediate relations.
//
// ColScanner is the one scan contract a source implements (storage.Store
// and the fragment package's stage outputs); a row scan pivots its column
// batches (OpenScan), and a source without it — an in-memory test
// oracle — is scanned from its materialized Relation. Over a ColScanner
// the hot paths run vectorized:
// filter conjuncts compile into comparison kernels over typed vectors
// refining a selection vector (vecscan.go, with the non-kernelizable
// suffix evaluated row-at-a-time on pivoted survivors), plain and numeric
// projections evaluate vector-at-a-time (vecproject.go), and simple
// DISTINCT and GROUP BY blocks skip row pipelines entirely (vecblock.go,
// vecgroup.go). A streaming vectorized block hands its batches over
// unpivoted to a columnar consumer and pivots only for a row consumer.
// The block shape chooses this path at every parallelism. Every vectorized
// path is an internal fast path pinned bit-identical to the row path —
// same rows, order, and error text — and declines to the row path whenever
// exact semantics would be at risk (windows, sorts, boxed vectors,
// non-numeric expressions), or when a block has no expression item and no
// filter kernel, where the row scan is cheaper. Hashed operators share one key definition,
// schema.AppendGroupKey, built alloc-free from rows or vectors alike.
//
// With WithParallelism(n), n > 1, the streamable segments of the blocks
// the vectorized compile declines (joins, derived inputs, row-only
// expressions, windows, sorts) run morsel-parallel
// (parallel.go): n workers pull sequence-numbered morsels from a shared
// cursor, apply per-worker scan/filter/probe/projection stages, and an
// order-preserving exchange re-emits their output in morsel order. GROUP BY
// partitions its key computation across workers and folds groups in
// parallel; hash-join builds are hash-partitioned across workers. Because
// the exchange restores serial order — and each group folds its rows in
// serial order — parallel execution is row-identical (floats included) and
// accounting-identical to serial execution: the worker count is purely a
// performance knob. Blocks with a streaming LIMIT stay serial to preserve
// their O(limit + batch) storage-read guarantee.
package engine
