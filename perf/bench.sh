#!/usr/bin/env bash
# Builds the perf benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perf/bench.sh                 # every workload, 3 fresh-process reps
#   bash perf/bench.sh -workload kv-read-hot -seed 7 -seconds 10 -trace 0
#
# perf/README.md lists every flag. The Go build cache, the toolchain's
# own config and telemetry files, the binary and trace files all live
# under .bench_build/ in the current directory, so a run writes nothing
# outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perf build -o "$out/perf" .
exec "$out/perf" "$@"
