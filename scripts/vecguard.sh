#!/bin/sh
# vecguard.sh — the vectorized kernels stay columnar.
#
# internal/engine/veckernel.go is the vectorized inner loop: comparison and
# NULL-test kernels that refine selection vectors over typed column payloads.
# internal/engine/vecjoin.go is the vectorized hash-join probe: group-key
# construction, selection-vector matching and gather over the same payloads.
# internal/engine/vecsort.go holds the typed sort keys (schema.KeyCol) the
# ORDER BY and window paths compare unboxed.
#
# Their whole reason to exist is that no row is ever pivoted before the
# kernel decides; the moment one reaches for a row-major helper
# (ColBatch.Rows, ColBatch.RowAt, schema.Row values) the batch gets
# re-materialized per row and the vectorized path silently degrades to the
# row path with extra steps. Pivoting belongs to the boundary layers
# (vecscan.go residuals, vecblock.go/vecgroup.go output, the join's
# post-match gather into output rows), never to the kernels.
#
# internal/fragment/execute.go is the stage hand-off: every fragment
# stage's output reaches the next stage as column batches, and stage
# accounting counts ColBatch.Len and the per-vector ColBatch.WireSize. A
# pivot there (ColBatch.Rows, DrainIterator, a row iterator, Rows.WireSize
# over schema.Rows) would not fail a test — the byte totals are identical —
# but the hand-off would silently fall back to rows and every stage above
# the first would lose the vectorized operators again. Rows are built only
# by the chain's consumers (fragment/materialize.go, network.Stream.Next).
set -eu
cd "$(dirname "$0")/.."

status=0
for f in internal/engine/veckernel.go internal/engine/vecjoin.go internal/engine/vecsort.go; do
	hits=$(grep -n '\.Rows()\|RowAt\|schema\.Row\b' "$f" || true)
	if [ -n "$hits" ]; then
		echo "$f must stay columnar — no row pivots inside kernels"
		echo "(ColBatch.Rows / RowAt / schema.Row belong to the pivot boundary):"
		echo "$hits"
		status=1
	fi
done
f=internal/fragment/execute.go
hits=$(grep -n '\.Rows()\|DrainIterator\|PivotRows\|RowIterator\|schema\.Rows\b' "$f" || true)
if [ -n "$hits" ]; then
	echo "$f must hand stages off as column batches — no row pivots in stage accounting"
	echo "(ColBatch.Rows / DrainIterator / row iterators / Rows.WireSize belong to the chain's consumers):"
	echo "$hits"
	status=1
fi
[ "$status" -eq 0 ] || exit "$status"
echo "vecguard: ok (kernels and the stage hand-off are pivot-free)"
