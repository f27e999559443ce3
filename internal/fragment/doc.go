// Package fragment implements the vertical fragmentation of queries from
// Grunert & Heuer §4: a (rewritten) query Q against the integrated sensor
// database d is decomposed into pushed-down fragments Q1..Qj that execute as
// close to the data sources as possible, plus a remainder Qδ for the more
// powerful nodes — Q(d) → Qδ(d′). The capability ladder follows Table 1:
//
//	E1 cloud      — complex ML in R, SQL:2003 with UDFs
//	E2 PC         — SQL-92 (we include window functions, which the paper's
//	                local server executes for the regression analysis)
//	E3 appliance  — "SQL light" with joins, attribute comparisons,
//	                projections, grouping/aggregation (the media center)
//	E4 sensor     — filters against constants and simple stream aggregates;
//	                cannot project single attributes (SELECT * only)
//
// Decomposition walks the plan's spine of query blocks with plan.SplitBlock
// (the block-shape and column-requirement rules live in internal/plan;
// this package only decides placement levels and conjunct partitioning).
//
// Execution side (execute.go): OpenChain wires a plan's fragments into one
// lazy batch pipeline. Stages hand off column batches (schema.ColIterator):
// each stage's output is served to the next stage as an engine.ColScanner
// source that answers for that one relation and nothing else (the
// fragmenter keeps every join inside one stage), so stages above the first
// run the engine's filter kernels and vectorized operators over the
// upstream vectors, and no stage boundary pivots to rows. Per-stage row/byte accounting counts each batch with
// ColBatch.Len and the per-vector ColBatch.WireSize and is finalized by
// draining on Close, so stats match the fully materialized baseline even
// when the consumer stops early. Rows are built only by the chain's
// consumers: Execute (materialize.go) and network.Stream. WithParallelism
// lets each stage's engine pipeline run morsel-parallel; batch sums are
// order-independent, so the accounting stays bit-identical to serial
// execution.
package fragment
