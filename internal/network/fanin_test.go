package network

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paradise/internal/fragment"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

func TestFanInEquivalentToSingleSensor(t *testing.T) {
	st := testStore(t, 900)
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y"
	plan := mustPlan(t, q)
	topo := DefaultApartment()

	single, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := RunFanIn(context.Background(), topo, plan, st, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fan.Result.Rows) != len(single.Result.Rows) {
		t.Fatalf("fan-in result differs: %d vs %d rows",
			len(fan.Result.Rows), len(single.Result.Rows))
	}
	// Final answers agree as multisets. Aggregates are summed in shard
	// order, so float results are compared after rounding.
	count := map[string]int{}
	keys := func(r schema.Row) string {
		parts := make([]string, len(r))
		for i, v := range r {
			if v.Type() == schema.TypeFloat {
				parts[i] = schema.Float(math.Round(v.AsFloat()*1e9) / 1e9).Format()
			} else {
				parts[i] = v.Format()
			}
		}
		return strings.Join(parts, "|")
	}
	for _, r := range single.Result.Rows {
		count[keys(r)]++
	}
	for _, r := range fan.Result.Rows {
		count[keys(r)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("multiset mismatch at %q", k)
		}
	}
	// Same egress.
	if fan.EgressBytes != single.EgressBytes {
		t.Fatalf("egress differs: %d vs %d", fan.EgressBytes, single.EgressBytes)
	}
}

func TestFanInParallelSensorsComputeFaster(t *testing.T) {
	st := testStore(t, 5000)
	q := "SELECT x, y FROM d WHERE z < 1"
	plan := mustPlan(t, q)
	topo := DefaultApartment()

	single, err := RunFanIn(context.Background(), topo, plan, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunFanIn(context.Background(), topo, plan, st, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Sensor compute parallelizes; the shared radio does not. With the
	// slow sensor CPU dominating, 64 sensors must be faster overall.
	if many.SimTime >= single.SimTime {
		t.Fatalf("64 sensors should beat 1: %v vs %v", many.SimTime, single.SimTime)
	}
}

func TestFanInValidation(t *testing.T) {
	st := testStore(t, 10)
	plan := mustPlan(t, "SELECT x FROM d")
	if _, err := RunFanIn(context.Background(), DefaultApartment(), plan, st, 0); err == nil {
		t.Fatal("zero sensors must fail")
	}
}

func TestFanInFirstLinkCarriesAllShards(t *testing.T) {
	st := testStore(t, 1200)
	plan := mustPlan(t, "SELECT * FROM d WHERE z < 1")
	fan, err := RunFanIn(context.Background(), DefaultApartment(), plan, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(context.Background(), DefaultApartment(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if fan.Traffic[0].Bytes != single.Traffic[0].Bytes {
		t.Fatalf("first-link volume should be shard-count independent: %d vs %d",
			fan.Traffic[0].Bytes, single.Traffic[0].Bytes)
	}
}

// sameRun fails unless two runs agree exactly: rows in order, placement,
// per-link traffic, egress, raw size and simulated time.
func sameRun(t *testing.T, label string, got, want *RunStats) {
	t.Helper()
	if !reflect.DeepEqual(got.Result.Rows, want.Result.Rows) {
		t.Fatalf("%s: rows differ (%d vs %d rows)", label, len(got.Result.Rows), len(want.Result.Rows))
	}
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatalf("%s: assignments differ:\n%s\n%s", label, got.Summary(), want.Summary())
	}
	if !reflect.DeepEqual(got.Traffic, want.Traffic) {
		t.Fatalf("%s: traffic differs:\n%s\n%s", label, got.Summary(), want.Summary())
	}
	if got.EgressBytes != want.EgressBytes || got.RawBytes != want.RawBytes || got.SimTime != want.SimTime {
		t.Fatalf("%s: egress/raw/time %d/%d/%v, want %d/%d/%v", label,
			got.EgressBytes, got.RawBytes, got.SimTime, want.EgressBytes, want.RawBytes, want.SimTime)
	}
}

// TestFanInOneSensorIsRun: with every row on one sensor, fan-in is the
// plain chain run — including plans whose cost placement hoisted a
// fragment above its capability floor.
func TestFanInOneSensorIsRun(t *testing.T) {
	st := testStore(t, 900)
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE z < 2 GROUP BY x, y"
	for _, hoist := range []struct {
		name  string
		stage int
		level fragment.Level
	}{
		{"fixed", -1, 0},
		{"stage 2 placed on the PC", 1, fragment.LevelPC},
		{"stage 1 placed on the appliance", 0, fragment.LevelAppliance},
	} {
		plan := mustPlan(t, q)
		if len(plan.Fragments) < 2 {
			t.Fatalf("want a multi-stage plan, got\n%s", plan)
		}
		if hoist.stage >= 0 {
			plan.Fragments[hoist.stage].Level = hoist.level
		}
		topo := DefaultApartment()
		want, err := Run(context.Background(), topo, plan, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunFanIn(context.Background(), topo, plan, st, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, hoist.name, got, want)
	}
}

// TestFanInShardFormula: with s sensors, stage 1 on the bottom node costs
// the largest round-robin shard's compute, and shipping the shard outputs
// costs one latency per sensor over the shared first link; everything
// else — rows, placement, traffic, egress — is the single-sensor run.
func TestFanInShardFormula(t *testing.T) {
	const n, sensors = 1001, 8
	st := testStore(t, n)
	plan := mustPlan(t, "SELECT x, y, AVG(z) AS zavg FROM d WHERE z < 2 GROUP BY x, y")
	topo := DefaultApartment()
	single, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := RunFanIn(context.Background(), topo, plan, st, sensors)
	if err != nil {
		t.Fatal(err)
	}
	if fan.Assignments[0].Node != topo.Nodes[0] {
		t.Fatalf("stage 1 should run on the sensors:\n%s", fan.Summary())
	}
	want := *single
	want.SimTime = fan.SimTime
	sameRun(t, "fan-in vs single", fan, &want)

	sensor, link := topo.Nodes[0], topo.Links[0]
	shard := (n + sensors - 1) / sensors
	deltaMs := float64(shard-n)/sensor.Power/1000 + float64(sensors-1)*link.LatencyMs
	wantTime := single.SimTime + time.Duration(deltaMs*float64(time.Millisecond))
	if d := fan.SimTime - wantTime; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("fan-in SimTime %v, shard formula gives %v", fan.SimTime, wantTime)
	}
}

// TestFanInShardMemory: the bottom node's memory cap applies per shard. A
// table too large for one sensor falls back past it, while the same table
// spread over enough sensors runs there.
func TestFanInShardMemory(t *testing.T) {
	st := testStore(t, 1200)
	plan := mustPlan(t, "SELECT * FROM d WHERE z < 1")
	topo := DefaultApartment()
	topo.Nodes[0] = &Node{Name: "sensor", Level: fragment.LevelSensor, Power: 0.01, MemRows: 500}
	one, err := RunFanIn(context.Background(), topo, plan, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := one.Assignments[0]; a.Node == topo.Nodes[0] || !a.FellBack {
		t.Fatalf("1200 rows on a 500-row sensor must fall back:\n%s", one.Summary())
	}
	many, err := RunFanIn(context.Background(), topo, plan, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a := many.Assignments[0]; a.Node != topo.Nodes[0] || a.FellBack {
		t.Fatalf("150-row shards fit a 500-row sensor:\n%s", many.Summary())
	}
}

// morselCounter is a store that counts its partitioned scans.
type morselCounter struct {
	*storage.Store
	opened atomic.Int64
}

func (m *morselCounter) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	m.opened.Add(1)
	return m.Store.OpenColMorsels(ctx, name, sc)
}

// TestFanInForwardsParallelism: options reach every engine of the run. The
// plan's first fragment joins two tables (marked sensor-level here, so the
// fan-in accounting applies); at parallelism 4 the join claims morsels
// from the source, serially it does not, and both give Run's answer.
func TestFanInForwardsParallelism(t *testing.T) {
	st := testStore(t, 900)
	e := st.Create(schema.NewRelation("e", schema.Col("t", schema.TypeInt), schema.Col("w", schema.TypeFloat)))
	for i := 0; i < 300; i++ {
		if err := e.Append(schema.Row{schema.Int(int64(3 * i)), schema.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	plan := mustPlan(t, "SELECT d.x, e.w FROM d JOIN e ON d.t = e.t")
	plan.Fragments[0].MinLevel = fragment.LevelSensor
	topo := DefaultApartment()
	want, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		src := &morselCounter{Store: st}
		got, err := RunFanIn(context.Background(), topo, plan, src, 2, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result.Rows, want.Result.Rows) {
			t.Fatalf("parallelism %d: rows differ from Run", par)
		}
		if parallel := src.opened.Load() > 0; parallel != (par > 1) {
			t.Fatalf("parallelism %d: partitioned scans opened = %v", par, parallel)
		}
	}
}
