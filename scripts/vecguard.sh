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
#
# Storage serves columns only: Table.ScanColumns and Table.ScanColMorsels
# are its scan surfaces, and engine.ColScanner is the one scan contract a
# source implements. A row scan (schema.RowIterator) or a row morsel source
# (schema.Morsel, schema.MorselSource) in internal/storage, or a
# BatchSource / MorselScanner interface in internal/engine, would bring
# back the second, row-major way to reach the same data that every row
# consumer already gets by pivoting the column batches (engine.OpenScan).
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
hits=$(grep -n 'RowIterator\|schema\.Morsel' $(ls internal/storage/*.go | grep -v '_test\.go$') || true)
if [ -n "$hits" ]; then
	echo "internal/storage must serve columns only — no row scans or row morsel sources"
	echo "(row consumers pivot ColIterator / ColMorselSource batches themselves):"
	echo "$hits"
	status=1
fi
hits=$(grep -n 'type[[:space:]]\{1,\}\(BatchSource\|MorselScanner\)\b' internal/engine/*.go || true)
if [ -n "$hits" ]; then
	echo "internal/engine must keep ColScanner as the one scan contract — no row scan interfaces"
	echo "(engine.OpenScan pivots a ColScanner's batches for row consumers):"
	echo "$hits"
	status=1
fi
[ "$status" -eq 0 ] || exit "$status"
echo "vecguard: ok (kernels and the stage hand-off are pivot-free; storage serves columns only)"
