#!/usr/bin/env bash
# unreached.sh — every function outside perf/ that no shipped entry point
# executes.
#
# Usage: scripts/unreached.sh
#
# Builds ./cmd/... and ./examples/... with `go build -cover
# -coverpkg=./...` and perf with `go -C perf build -cover
# -coverpkg=chanos/...`, runs every shipped entry point into one
# GOCOVERDIR, then prints each function `go tool cover -func` reports at
# 0.0% ("file:line: name"), and their count on the last line. The runs:
#
#   chanos-bench -quick, -quick -csv and a full -run E18 -json (from the
#     temporary directory, where it writes BENCH_E18.json);
#   the six examples;
#   chanos-sim: the VFS workload with and without -trace; kvload plain,
#     with -replicas 1 -replica-reads -stats-every 0.5 and with -loss 0.01;
#     cluster; -chaos-schedule gen; -chaos-seeds 100 -chaos-out; and a
#     -fail-writes 2 -dump-on-fail run whose dump is replayed with -replay
#     -redump;
#   chanos-dump: inspect, -validate and -diff (the dump against its redump);
#   protocheck, and chanos-vet ./... with and without -json;
#   perf's five workloads at -seconds 0, once with -trace 0 and once with
#     -trace 1.
#
# Every run must exit 0 (protocheck too: its seeded bugs are expected);
# one that fails makes the script fail and print the tail of its output.
# Everything it writes (binaries, counters, dumps, traces) lives in one
# mktemp -d directory, removed on exit. Functions only tests reach are
# what it lists: a candidate for deletion, or a path (a fault, a fake, a
# diagnostic) that a run is not meant to take. It takes about a minute
# and a half on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
mkdir -p "$bin" "$tmp/cov" "$tmp/dump" "$tmp/perf"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
go -C perf build -cover -coverpkg=chanos/... -o "$bin/perf" .
export GOCOVERDIR=$tmp/cov

# run CMD... runs CMD with its output kept aside and fails the script,
# printing the output's tail, if CMD fails.
run() {
    if ! "$@" >"$tmp/out" 2>&1; then
        echo "unreached: $* failed" >&2
        tail -n 20 "$tmp/out" >&2
        exit 1
    fi
}

run "$bin/chanos-bench" -quick
run "$bin/chanos-bench" -quick -csv
(cd "$tmp" && run "$bin/chanos-bench" -run E18 -json)
for ex in examples/*/; do
    run "$bin/$(basename "$ex")"
done

sim=$bin/chanos-sim
run "$sim"
run "$sim" -trace "$tmp/vfs.trace.json"
run "$sim" -scenario kvload
run "$sim" -scenario kvload -replicas 1 -replica-reads -stats-every 0.5
run "$sim" -scenario kvload -loss 0.01
run "$sim" -scenario cluster
run "$sim" -chaos-schedule gen
run "$sim" -chaos-seeds 100 -chaos-out "$tmp/matrix.json"
run "$sim" -scenario kvload -fail-writes 2 -dump-on-fail "$tmp/dump"
dumps=("$tmp"/dump/*.json)
if [ ${#dumps[@]} -ne 1 ] || [ ! -f "${dumps[0]}" ]; then
    echo "unreached: -fail-writes 2 -dump-on-fail wrote ${#dumps[@]} dumps, want 1" >&2
    exit 1
fi
run "$sim" -replay "${dumps[0]}" -redump "$tmp/redump.json"

run "$bin/chanos-dump" "${dumps[0]}"
run "$bin/chanos-dump" -validate "${dumps[0]}"
run "$bin/chanos-dump" -diff "${dumps[0]}" "$tmp/redump.json"
run "$bin/protocheck"
run "$bin/chanos-vet" ./...
run "$bin/chanos-vet" -json ./...

for wl in kv-read-hot kv-write-churn kv-read-cold kv-quorum cluster-3x2; do
    for tr in 0 1; do
        run "$bin/perf" -workload "$wl" -seconds 0 -trace "$tr" -out "$tmp/perf"
    done
done

# perf's own package is in the counters (chanos/... matches chanos/perf)
# but belongs to another module, which `go tool cover` cannot resolve
# from here.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/profile.txt"
grep -v '^chanos/perf/' "$tmp/profile.txt" >"$tmp/chanos.txt"
go tool cover -func="$tmp/chanos.txt" |
    awk -v root="chanos/" '$NF == "0.0%" { sub("^" root, "", $1); print $1 " " $2 }' >"$tmp/unreached"
cat "$tmp/unreached"
echo "$(wc -l <"$tmp/unreached") functions no entry point runs"
