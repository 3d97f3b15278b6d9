#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate (what CI runs).
#
# Usage: scripts/verify.sh
#
# Every experiment and chaos artifact is checked by go test, not here:
# internal/exp's TestAllExperimentsProduceTables reproduces each committed
# BENCH_<id>.json cell by cell and runs the gate predicates over its
# tables, and cmd/chanos-sim's tests reproduce CHAOS_MATRIX.json and
# drive the cluster, core-dump/replay and red-chaos command lines.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== chanos-vet ./... (determinism + no-shared-memory contracts)"
# Hard gate: any non-waived finding from the four custom analyzers
# (mapiter, wallclock, sharedstate, msgownership) fails the build.
# Suppression is only possible via inline, justified
# //chanos:allow waivers, which the tool counts and prints; a waiver
# that suppresses nothing, or a malformed one, fails the build too.
go run ./cmd/chanos-vet ./...

echo "== bash -n scripts/*.sh"
# The scripts run outside go test (perfpair.sh only by hand), so a syntax
# error in one would otherwise go unnoticed until someone runs it.
for f in scripts/*.sh; do bash -n "$f"; done

echo "== gofmt check"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
# The race tier runs in -short mode too: the simulator's contract is
# no shared memory outside the engine layer, and the detector holds
# the engine/device layer (the one place goroutines are allowed) to
# it. Long sweeps are skipped — the schedules they explore don't add
# new happens-before edges, just more of the same ones.
go test -race -short ./...

echo "== perf/: go vet + go test"
# perf/ is its own module and the root ./... patterns skip it. It
# builds against dump, store and cluster, so an API change there that
# breaks the benchmark must fail here, not in a benchmark run. It runs
# after the race tier so a perf/ failure cannot hide that tier's result.
(cd perf && go vet ./... && go test ./...)

echo "== non-test Go lines outside perf/ (informational)"
scripts/loc.sh | tail -n 1

echo "verify: OK"
