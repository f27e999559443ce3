// Package storage provides the in-memory tables that back the integrated
// sensor database d of the smart environment, plus CSV import/export used
// by the CLI tools. Tables are safe for concurrent readers and writers,
// matching the ingestion pattern of sensor streams feeding queries.
//
// Storage serves columns only. Snapshot materializes a stable row copy;
// every scan is columnar and bound to a context checked per batch:
// Table.ScanColumns streams zero-copy column windows with projection and
// zone-map segment pruning, so an early-closing consumer (LIMIT) leaves the
// rest of the table untouched, and Table.ScanColMorsels splits the table
// into morsels — windows claimed through one atomic cursor — handed out to
// concurrent workers for the engine's morsel-driven parallel scans. Row
// consumers pivot the batches themselves; a full-width window carries the
// table's row view, so that pivot gathers references instead of copying.
package storage
