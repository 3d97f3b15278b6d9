#!/usr/bin/env bash
# unreached.sh — every function outside perf/ that no shipped entry point
# executes, and every package no entry point links; with -check, the gate
# that holds that set equal to the committed list, scripts/unreached.txt.
#
# Usage: scripts/unreached.sh [-check]
#
# Builds ./cmd/... and ./examples/... with `go build -cover
# -coverpkg=./...` and perf with `go -C perf build -cover
# -coverpkg=chanos/...`, runs every shipped entry point into one
# GOCOVERDIR, and names each function `go tool covdata func` reports at
# 0.0% as "FILE NAME": the file relative to the repo root and the
# receiver-qualified name (`*Driver.Stop`, not `Stop`), with no line
# number, so ordinary edits do not move an entry. A package under ./...
# that none of the built programs links is named "DIR package": the
# counters cannot see it at all, so it is reported whole. The runs:
#
#   chanos-bench -quick, -quick -csv and a full -run E18 -json (from the
#     temporary directory, where it writes BENCH_E18.json);
#   the six examples;
#   chanos-sim: the VFS workload with and without -trace; kvload plain,
#     with -replicas 1 -replica-reads -stats-every 0.5 and with -loss 0.01;
#     cluster; -chaos-schedule gen; -chaos-seeds 100 -chaos-out; a
#     -fail-writes 2 -dump-on-fail run whose dump is replayed with -replay
#     -redump; and the red bitrot schedule of cmd/chanos-sim's
#     TestRedChaosScheduleDumpsAndReplays (exit 1, one dump), replayed with
#     -replay -redump;
#   chanos-dump: inspect, -validate, -diff of the fail-writes dump against
#     its redump (exit 0) and against the bitrot dump (exit 1: they differ);
#   protocheck, and chanos-vet ./... with and without -json;
#   perf's five workloads at -seconds 0, once with -trace 0 and once with
#     -trace 1.
#
# Each run must exit with the code its command documents (0, or 1 where
# noted above; protocheck exits 0, its seeded bugs being expected); any
# other code fails the script and prints the tail of the run's output.
#
# Without -check it prints the unreached functions, then the unlinked
# packages, then their counts. With -check it compares them with
# scripts/unreached.txt and exits 1 naming
#   - each unreached function or unlinked package the list lacks
#     (delete the code, give it an entry point, or list it with a reason),
#   - each listed entry that a run now reaches or that no longer exists
#     (remove the entry: the list stays exact, as chanos-vet's waivers do).
#
# The list has one entry a line, "FILE NAME REASON..." or "DIR package
# REASON...", fields separated by blanks; the reason, required, is the
# rest of the line and says why the code stays although no entry point
# runs it. Blank lines and lines starting with # are ignored. A malformed
# or duplicated entry fails -check before anything is built. To add an
# entry, copy the "FILE NAME" the check printed and append a reason; to
# retire one, delete its line.
#
# Everything it writes (binaries, counters, dumps, traces) lives in one
# mktemp -d directory, removed on exit. It takes about a minute and a
# half on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

check=false
case "${1-}" in
"") ;;
-check) check=true ;;
*)
    echo "usage: scripts/unreached.sh [-check]" >&2
    exit 2
    ;;
esac
list=scripts/unreached.txt

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if $check; then
    # The listed "FILE NAME" keys, sorted; a line without a reason, or a
    # key listed twice, is an error.
    : >"$tmp/keys"
    awk -v list="$list" -v keys="$tmp/keys" '
        /^[ \t]*(#|$)/ { next }
        NF < 3 { printf "unreached: %s:%d: want \"FILE NAME REASON...\", got %s\n", list, NR, $0 >"/dev/stderr"; bad = 1; next }
        seen[$1 " " $2]++ { printf "unreached: %s:%d: %s %s is listed twice\n", list, NR, $1, $2 >"/dev/stderr"; bad = 1 }
        { print $1 " " $2 >keys }
        END { exit bad }
    ' "$list" || exit 1
    sort "$tmp/keys" >"$tmp/listed"
fi

bin=$tmp/bin
mkdir -p "$bin" "$tmp/cov" "$tmp/dump" "$tmp/red" "$tmp/perf"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
go -C perf build -cover -coverpkg=chanos/... -o "$bin/perf" .
export GOCOVERDIR=$tmp/cov

# expect CODE CMD... runs CMD with its output kept aside and fails the
# script, printing the output's tail, if CMD exits other than CODE.
expect() {
    local want=$1 got=0
    shift
    "$@" >"$tmp/out" 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "unreached: $* exited $got, want $want" >&2
        tail -n 20 "$tmp/out" >&2
        exit 1
    fi
}

# onedump DIR prints the one dump a -dump-on-fail run wrote into DIR, and
# fails the script if it wrote none or several.
onedump() {
    local dumps=("$1"/*.dump.json)
    if [ ${#dumps[@]} -ne 1 ] || [ ! -f "${dumps[0]}" ]; then
        echo "unreached: the run dumping into $1 wrote ${#dumps[@]} dumps, want 1" >&2
        exit 1
    fi
    echo "${dumps[0]}"
}

expect 0 "$bin/chanos-bench" -quick
expect 0 "$bin/chanos-bench" -quick -csv
(cd "$tmp" && expect 0 "$bin/chanos-bench" -run E18 -json)
for ex in examples/*/; do
    expect 0 "$bin/$(basename "$ex")"
done

sim=$bin/chanos-sim
expect 0 "$sim"
expect 0 "$sim" -trace "$tmp/vfs.trace.json"
expect 0 "$sim" -scenario kvload
expect 0 "$sim" -scenario kvload -replicas 1 -replica-reads -stats-every 0.5
expect 0 "$sim" -scenario kvload -loss 0.01
expect 0 "$sim" -scenario cluster
expect 0 "$sim" -chaos-schedule gen
expect 0 "$sim" -chaos-seeds 100 -chaos-out "$tmp/matrix.json"
expect 0 "$sim" -scenario kvload -fail-writes 2 -dump-on-fail "$tmp/dump"
failed=$(onedump "$tmp/dump")
expect 0 "$sim" -replay "$failed" -redump "$tmp/redump.json"
expect 1 "$sim" -chaos-schedule cy:4000000:bitrot:0:3 -seed 7 -shards 2 -clients 12 -requests 240 -readpct 60 -keys 96 -logblocks 64 -dump-on-fail "$tmp/red"
red=$(onedump "$tmp/red")
expect 0 "$sim" -replay "$red" -redump "$tmp/red-redump.json"

expect 0 "$bin/chanos-dump" "$failed"
expect 0 "$bin/chanos-dump" -validate "$failed"
expect 0 "$bin/chanos-dump" -diff "$failed" "$tmp/redump.json"
expect 1 "$bin/chanos-dump" -diff "$failed" "$red"
expect 0 "$bin/protocheck"
expect 0 "$bin/chanos-vet" ./...
expect 0 "$bin/chanos-vet" -json ./...

for wl in kv-read-hot kv-write-churn kv-read-cold kv-quorum cluster-3x2; do
    for tr in 0 1; do
        expect 0 "$bin/perf" -workload "$wl" -seconds 0 -trace "$tr" -out "$tmp/perf"
    done
done

# perf's own package is in the counters (chanos/... matches chanos/perf)
# but is no part of this module.
go tool covdata func -i="$tmp/cov" |
    awk '$NF == "0.0%" && $1 !~ /^chanos\/perf\// { sub(/^chanos\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 " " $2 }' |
    sort -u >"$tmp/funcs"
{ go list -deps ./cmd/... ./examples/...; go -C perf list -deps .; } | sort -u >"$tmp/linked"
go list ./... | sort | comm -23 - "$tmp/linked" | sed 's|^chanos/||; s|$| package|' >"$tmp/pkgs"

if ! $check; then
    cat "$tmp/funcs" "$tmp/pkgs"
    echo "unreached: functions $(wc -l <"$tmp/funcs"), unlinked packages $(wc -l <"$tmp/pkgs")"
    exit 0
fi

sort "$tmp/funcs" "$tmp/pkgs" >"$tmp/found"
comm -23 "$tmp/found" "$tmp/listed" | sed "s|^|unreached: |; s|\$|: no entry point runs it and $list does not list it|" >"$tmp/bad"
comm -13 "$tmp/found" "$tmp/listed" | sed "s|^|unreached: |; s|\$|: listed in $list, but an entry point runs it or it is gone|" >>"$tmp/bad"
if [ -s "$tmp/bad" ]; then
    cat "$tmp/bad" >&2
    exit 1
fi
echo "unreached: ok, $list lists each of them with a reason (functions $(wc -l <"$tmp/funcs"), unlinked packages $(wc -l <"$tmp/pkgs"))"
