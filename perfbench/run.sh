#!/bin/sh
# Builds the benchmark from source and runs it: run from the repository
# root as
#
#	sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# replay's spans and city-ingest's disk corpus.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans.jsonl" --work "$out/work" "$@"
