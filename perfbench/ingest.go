package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	paradise "paradise"
)

// City corpus shape: a cmd/gensensors-style readings table, every sensor
// reporting once per simulated minute, appended in time order.
const (
	cityTickMs      = 60_000
	cityHistory     = 240 // ticks of recovered history (4 h)
	cityLiveWindow  = 10  // ticks the live COUNT spans
	cityIngestEvery = 100 * time.Millisecond
)

// cityEpoch anchors every generated timestamp (the paper's year).
var cityEpoch = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

var cityStatuses = []string{"ok", "ok", "ok", "ok", "degraded", "calibrating"}

func tickTime(tick int) int64 { return cityEpoch + int64(tick)*cityTickMs }

func readingsSchema() *paradise.Relation {
	return paradise.NewRelation("readings",
		paradise.SensitiveCol("sensor_id", paradise.TypeInt),
		paradise.Col("t", paradise.TypeInt),
		paradise.Col("temperature", paradise.TypeFloat),
		paradise.Col("humidity", paradise.TypeFloat),
		paradise.Col("battery", paradise.TypeFloat),
		paradise.Col("status", paradise.TypeString),
	)
}

// sensorGen generates the readings tick by tick, deterministically in the
// seed; ticks must be drawn in order.
type sensorGen struct {
	rng               *rand.Rand
	baseTemp, baseHum []float64
	tick              int
}

func newSensorGen(seed int64, sensors int) *sensorGen {
	g := &sensorGen{rng: rand.New(rand.NewSource(seed)),
		baseTemp: make([]float64, sensors), baseHum: make([]float64, sensors)}
	for i := range g.baseTemp {
		g.baseTemp[i] = 14 + 12*g.rng.Float64()
		g.baseHum[i] = 30 + 40*g.rng.Float64()
	}
	return g
}

// next returns the rows of the next tick.
func (g *sensorGen) next() paradise.Rows {
	at := tickTime(g.tick)
	drain := float64(g.tick) / cityHistory
	g.tick++
	rows := make(paradise.Rows, len(g.baseTemp))
	for s := range rows {
		rows[s] = paradise.Row{
			paradise.Int(int64(s)),
			paradise.Int(at),
			paradise.Float(round2(g.baseTemp[s] + 2*g.rng.NormFloat64())),
			paradise.Float(round2(g.baseHum[s] + 5*g.rng.NormFloat64())),
			paradise.Float(round2(100 - 60*drain - 5*g.rng.Float64())),
			paradise.String(cityStatuses[g.rng.Intn(len(cityStatuses))]),
		}
	}
	return rows
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

// cityIngest: a disk-backed sensor corpus recovered at set-up, queried
// over fixed ranges of its history while an open-loop writer appends one
// tick every 100 ms. Storage (segment admission, lazy decode and CRC,
// seal and fsync) does most of the work.
func cityIngest(o options) (*workload, error) {
	sensors := scaled(o, 1000, 20)
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("city-%d-%d", o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	ing := &ingester{seed: o.seed, sensors: sensors}
	w := &workload{
		corpus: map[string]int{"sensors": sensors, "history_ticks": cityHistory,
			"history_rows": sensors * cityHistory},
		table:  "readings",
		ingest: ing,
		replay: scaled(o, 24, 8),
	}
	w.prepare = func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		st, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir})
		if err != nil {
			return err
		}
		tab, err := st.CreateTable(readingsSchema())
		if err != nil {
			return err
		}
		g := newSensorGen(o.seed, sensors)
		for i := 0; i < cityHistory; i++ {
			if err := tab.Append(g.next()...); err != nil {
				return err
			}
		}
		return st.Flush()
	}
	w.cleanup = func() error { return os.RemoveAll(dir) }
	w.open = func() (*paradise.Store, error) { return paradise.NewStoreWith(paradise.StoreConfig{Dir: dir}) }

	rng := rand.New(rand.NewSource(o.seed))
	window := func(ticks int) (int64, int64) {
		s := rng.Intn(cityHistory - ticks + 1)
		return tickTime(s), tickTime(s + ticks)
	}
	win := make([]*stmt, 16)
	for i := range win {
		a, b := window(10)
		win[i] = &stmt{kind: "window-10m", tenant: "open", sql: fmt.Sprintf(
			"SELECT COUNT(*) AS n, AVG(temperature) AS avg_temp FROM readings WHERE t >= %d AND t < %d", a, b)}
	}
	hour := make([]*stmt, 4)
	for i := range hour {
		a, b := window(60)
		hour[i] = &stmt{kind: "hour-by-sensor", tenant: "open", sql: fmt.Sprintf(
			"SELECT sensor_id, AVG(temperature) AS avg_temp, MAX(humidity) AS max_hum FROM readings"+
				" WHERE t >= %d AND t < %d GROUP BY sensor_id", a, b)}
	}
	full := &stmt{kind: "history-by-status", tenant: "open", sql: fmt.Sprintf(
		"SELECT status, COUNT(*) AS n, AVG(battery) AS avg_batt FROM readings WHERE t < %d GROUP BY status",
		tickTime(cityHistory))}
	w.fixed = append(append(append([]*stmt{}, win...), hour...), full)
	w.warm = []*stmt{win[0], hour[0], full}
	w.confirm = w.warm
	w.mix = []choice{
		// The two fast kinds (window, live) make 70% of the mix, so the
		// median sits inside their latency mode, not at its edge.
		{5, func(r *rand.Rand) *stmt { return win[r.Intn(len(win))] }},
		{2, func(r *rand.Rand) *stmt { return hour[r.Intn(len(hour))] }},
		{1, one(full)},
		{2, func(*rand.Rand) *stmt { return ing.liveCount() }},
	}
	w.finish = func(e *env) error { return durability(e, dir, full, ing) }
	w.rawGrows = true
	return w, nil
}

// ingester is the open-loop writer of city-ingest: tick k is due at
// start + k*100ms whether or not the previous append has returned.
type ingester struct {
	seed    int64
	sensors int
	tab     *paradise.Table
	// acked counts ingest ticks whose Append has returned: the ledger.
	acked atomic.Int64
	stop  chan struct{}
	done  chan struct{}
	err   error
	// Per batch: Append alone, Append end minus due time, send minus due.
	appendDur, fromDue, late []time.Duration
	// storedPerRow is segment-file bytes on disk per stored row, measured
	// by the durability check.
	storedPerRow float64
}

// liveCount builds the COUNT over the latest fully acknowledged window,
// with its answer from the ledger.
func (g *ingester) liveCount() *stmt {
	end := cityHistory + int(g.acked.Load())
	cnt := int64(cityLiveWindow * g.sensors)
	d, err := rowsDigest(paradise.Rows{{paradise.Int(cnt)}})
	if err != nil {
		panic(err) // one int cell always marshals
	}
	return &stmt{kind: "live-count", tenant: "open",
		sql: fmt.Sprintf("SELECT COUNT(*) AS n FROM readings WHERE t >= %d AND t < %d",
			tickTime(end-cityLiveWindow), tickTime(end)),
		want: &answer{rows: d}}
}

// start launches the writer over the served store's readings table; the
// generator first replays the history ticks so ingest continues the
// corpus. Ticks are due until the deadline, so a run of s seconds appends
// at most 10*s ticks.
func (g *ingester) start(store *paradise.Store, deadline time.Time) error {
	tab, err := store.Table("readings")
	if err != nil {
		return err
	}
	g.tab = tab
	g.stop, g.done = make(chan struct{}), make(chan struct{})
	gen := newSensorGen(g.seed, g.sensors)
	for i := 0; i < cityHistory; i++ {
		gen.next()
	}
	go g.loop(gen, deadline)
	return nil
}

func (g *ingester) loop(gen *sensorGen, deadline time.Time) {
	defer close(g.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	begin := time.Now()
	for k := 0; ; k++ {
		rows := gen.next()
		due := begin.Add(time.Duration(k) * cityIngestEvery)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				return
			default:
			}
		}
		sent := time.Now()
		if err := g.tab.Append(rows...); err != nil {
			g.err = fmt.Errorf("ingest tick %d: %w", k, err)
			return
		}
		end := time.Now()
		g.acked.Store(int64(k + 1))
		g.appendDur = append(g.appendDur, end.Sub(sent))
		g.fromDue = append(g.fromDue, end.Sub(due))
		g.late = append(g.late, sent.Sub(due))
	}
}

// halt stops the writer and waits for it.
func (g *ingester) halt() error {
	close(g.stop)
	<-g.done
	return g.err
}

// durability flushes the served store, recovers its directory into a
// fresh store and checks that every acknowledged row is readable, that
// the full-history aggregate is unchanged, and records the bytes stored
// per row.
func durability(e *env, dir string, full *stmt, g *ingester) error {
	ctx := context.Background()
	before, err := expect(ctx, e.ref["open"], full.sql)
	if err != nil {
		return err
	}
	if before.rows != full.want.rows {
		return fmt.Errorf("durability: full-history aggregate moved under ingest")
	}
	if err := e.store.Flush(); err != nil {
		return fmt.Errorf("durability: flush: %w", err)
	}
	acked := int(g.acked.Load())
	total := (cityHistory + acked) * g.sensors
	var stored int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			stored += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	g.storedPerRow = float64(stored) / float64(total)

	rec, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("durability: recover: %w", err)
	}
	sess, err := paradise.Open(rec)
	if err != nil {
		return err
	}
	after, err := expect(ctx, sess, full.sql)
	if err != nil {
		return err
	}
	if after.rows != full.want.rows {
		return fmt.Errorf("durability: full-history aggregate differs after recovery")
	}
	// Every acknowledged row, in append order, against the generator.
	cur, err := sess.Query(ctx, fmt.Sprintf(
		"SELECT sensor_id, t, temperature, humidity, battery, status FROM readings WHERE t >= %d",
		tickTime(cityHistory)))
	if err != nil {
		return err
	}
	defer cur.Close()
	gen := newSensorGen(g.seed, g.sensors)
	for i := 0; i < cityHistory; i++ {
		gen.next()
	}
	n := 0
	var want paradise.Rows
	for cur.Next() {
		if len(want) == 0 {
			want = gen.next()
		}
		got := cur.Row()
		if len(got) != len(want[0]) {
			return fmt.Errorf("durability: row %d has %d columns", n, len(got))
		}
		for j := range got {
			if !sameValue(got[j], want[0][j]) {
				return fmt.Errorf("durability: ingested row %d differs after recovery: %v, want %v", n, got, want[0])
			}
		}
		want = want[1:]
		n++
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if n != acked*g.sensors {
		return fmt.Errorf("durability: %d ingested rows readable after recovery, %d acknowledged", n, acked*g.sensors)
	}
	if got := rec.StorageStats(); got.SealedRows+got.TailRows != int64(total) {
		return fmt.Errorf("durability: recovered %d rows, want %d", got.SealedRows+got.TailRows, total)
	}
	return nil
}

// sameValue compares two typed cells exactly.
func sameValue(a, b paradise.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case paradise.TypeInt:
		return a.AsInt() == b.AsInt()
	case paradise.TypeFloat:
		return a.AsFloat() == b.AsFloat()
	case paradise.TypeString:
		return a.AsString() == b.AsString()
	case paradise.TypeBool:
		return a.AsBool() == b.AsBool()
	case paradise.TypeTime:
		return a.AsTime().Equal(b.AsTime())
	}
	return true
}
