// Command perfbench is the end-to-end serving benchmark of PArADISE. It
// drives the real server package over loopback HTTP with one of three
// seeded workloads and prints the end-to-end metrics; with -trace 1 it
// also replays the workload's statements layer by layer (parse, policy
// rewrite, plan lowering, fragmentation and placement, chain execution,
// unfragmented engine, storage scan, anonymization, wire encoding) and
// prints the per-layer split instead.
//
// Usage:
//
//	perfbench --workload apartment-policy|bulk-export|city-ingest \
//	          --seed N --seconds S --trace 0|1
//
// Every response is checked against an answer computed once at set-up
// with Session.Process; the traced replay is checked against the
// production pipeline; city-ingest ends with a restart-and-recover
// durability check. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the run's reproducibility inputs (seed, nproc, GOMAXPROCS, Go
// version, corpus sizes, statement-sequence digests). run.sh builds and
// runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 11

// options are the inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks corpus sizes and replay lengths; the command line
	// always runs at 1.
	scale float64
	// setups is how many times set-up is repeated; the command line
	// always sets up setupRuns times.
	setups int
	// spans is the file the traced replay writes its spans to.
	spans string
	// work is a scratch directory for disk-backed corpora.
	work string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1, setups: setupRuns}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "apartment-policy | bulk-export | city-ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every corpus, statement sequence and literal")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced replay instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", ".bench_build/perfbench/spans.jsonl", "where the traced replay writes its spans")
	fs.StringVar(&o.work, "work", ".bench_build/perfbench/work", "scratch directory for disk-backed corpora")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs one benchmark and prints its reproducibility record and
// its result, one JSON line each.
func execute(o options, stdout, stderr io.Writer) int {
	res, info, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
