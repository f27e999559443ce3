package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSmoke runs every workload tiny, untraced and traced, and checks that
// every named metric is printed with its unit, that every answer, replay
// and durability check passed, and that the reproducibility record is
// complete.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"apartment-policy", "bulk-export", "city-ingest"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := execute(options{workload: w, seed: 5, seconds: 0.5, trace: trace == "1",
					scale: 0.05, setups: 1, spans: dir + "/spans.jsonl", work: dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if len(lines) != 2 {
					t.Fatalf("want an info line and a result line, got %d lines", len(lines))
				}
				var inf info
				if err := json.Unmarshal([]byte(lines[0]), &inf); err != nil {
					t.Fatal(err)
				}
				if inf.Seed != 5 || inf.NumCPU < 1 || inf.GOMAXPROCS < 1 || inf.GoVersion == "" ||
					len(inf.Corpus) == 0 || len(inf.Sequences) != clients || len(inf.Setups) != 1 {
					t.Errorf("incomplete reproducibility record: %s", lines[0])
				}
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: %s\n%s", lines[1], lines[0])
				}
				want := endToEndUnits
				if trace == "1" {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestSequencesReproducible: one seed gives one statement sequence per
// client; another seed gives another.
func TestSequencesReproducible(t *testing.T) {
	for name, mk := range workloads {
		o := options{workload: name, seed: 9, scale: 0.05, work: t.TempDir()}
		a, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		o.seed = 10
		c, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		da, db, dc := sequenceDigests(a, 9), sequenceDigests(b, 9), sequenceDigests(c, 10)
		if strings.Join(da, ",") != strings.Join(db, ",") {
			t.Errorf("%s: seed 9 gave %v then %v", name, da, db)
		}
		if strings.Join(da, ",") == strings.Join(dc, ",") {
			t.Errorf("%s: seeds 9 and 10 gave the same sequences", name)
		}
		if da[0] == da[1] {
			t.Errorf("%s: both clients send the same sequence", name)
		}
	}
}
