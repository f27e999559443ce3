package fragment

import (
	"context"
	"reflect"
	"testing"

	"paradise/internal/sqlparser"
)

// TestParallelChainStatsBitIdentical pins the accounting half of the
// parallel contract: executing a fragment chain with worker parallelism
// must leave the result rows AND the per-stage row/byte accounting —
// the Figure 3 quantities — bit-identical to the serial chain. Stage
// outputs cross the exchange as morsels, but every batch still passes the
// stage counter exactly once, and integer sums are order-independent.
func TestParallelChainStatsBitIdentical(t *testing.T) {
	st := testStore(t)
	queries := []string{
		"SELECT x, y FROM d WHERE x > y AND z < 2",
		"SELECT x, COUNT(*) AS n FROM d GROUP BY x HAVING COUNT(*) > 1",
		"SELECT x, n FROM (SELECT x, COUNT(*) AS n FROM d GROUP BY x) AS s WHERE n > 1",
		"SELECT DISTINCT x FROM d WHERE z < 2",
		"SELECT x, y FROM d ORDER BY y LIMIT 3",
	}
	for _, q := range queries {
		sel, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := New().Fragment(sel)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		serial, err := Execute(context.Background(), plan, st)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		par, err := Execute(context.Background(), plan, st, WithParallelism(4))
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if !reflect.DeepEqual(serial.Result.Rows, par.Result.Rows) {
			t.Fatalf("%q: parallel rows differ from serial", q)
		}
		if len(serial.Stages) != len(par.Stages) {
			t.Fatalf("%q: stage count %d != %d", q, len(par.Stages), len(serial.Stages))
		}
		for i := range serial.Stages {
			if serial.Stages[i].Rows != par.Stages[i].Rows ||
				serial.Stages[i].Bytes != par.Stages[i].Bytes {
				t.Fatalf("%q stage %d: parallel accounting (%d rows, %d bytes) != serial (%d rows, %d bytes)",
					q, i,
					par.Stages[i].Rows, par.Stages[i].Bytes,
					serial.Stages[i].Rows, serial.Stages[i].Bytes)
			}
		}
	}
}

// TestParallelChainEarlyClose: closing a parallel chain before exhaustion
// still drains every stage, so the accounting matches the serial chain's
// full-drain numbers (every node ships its whole output regardless of how
// much the consumer read).
func TestParallelChainEarlyClose(t *testing.T) {
	st := testStore(t)
	sel, err := sqlparser.Parse("SELECT x, y FROM d WHERE z < 2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New().Fragment(sel)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Execute(context.Background(), plan, st)
	if err != nil {
		t.Fatal(err)
	}

	chain, err := OpenChain(context.Background(), plan, st, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Iterator().NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	got := chain.Stages()
	for i := range serial.Stages {
		if serial.Stages[i].Rows != got[i].Rows || serial.Stages[i].Bytes != got[i].Bytes {
			t.Fatalf("stage %d after early close: (%d rows, %d bytes) != serial (%d rows, %d bytes)",
				i, got[i].Rows, got[i].Bytes, serial.Stages[i].Rows, serial.Stages[i].Bytes)
		}
	}
}
