#!/usr/bin/env bash
# repin.sh — regenerate every event-pinned artifact after a change that
# means to move simulated events, then show what moved.
#
# Usage: scripts/repin.sh
#
# It rewrites the committed BENCH_*.json files (chanos-bench -quick
# -json), CHAOS_MATRIX.json (the 100-seed sweep) and the four chanos-sim
# scenario goldens, whose command lines it reads from the comment above
# TestGoldenOutput in cmd/chanos-sim/main_test.go. The two oracle tests
# pin constants in Go source instead, so it runs them and prints their
# got/want lines for the change to record by hand. It ends with the git
# status of the artifacts: every file listed there moved, and the change
# says why.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== chanos-bench -quick -json (BENCH_*.json)"
go run ./cmd/chanos-bench -quick -json > /dev/null

echo "== chanos-sim -chaos-seeds 100 -chaos-out CHAOS_MATRIX.json"
go run ./cmd/chanos-sim -chaos-seeds 100 -chaos-out CHAOS_MATRIX.json > /dev/null

echo "== chanos-sim scenario goldens"
src=cmd/chanos-sim/main_test.go
world=$(sed -n 's/^var world = \[\]string{\(.*\)}$/\1/p' "$src" | tr -d '",')
[ -n "$world" ] || { echo "repin: no world variable in $src" >&2; exit 1; }
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/chanos-sim" ./cmd/chanos-sim
n=0
while IFS=$'\t' read -r args golden; do
	args=${args//<world>/$world}
	echo "chanos-sim $args > $golden"
	# shellcheck disable=SC2086 # args is a flag list, split on purpose
	"$bin/chanos-sim" $args > "cmd/chanos-sim/$golden"
	n=$((n + 1))
done < <(sed -n 's|^// chanos-sim \(.*\) > \(testdata/.*\.golden\)$|\1\t\2|p' "$src")
[ "$n" -eq 4 ] || { echo "repin: found $n golden command lines in $src, want 4" >&2; exit 1; }

echo "== oracle constants (record any got/want pair in the test source)"
go test -count=1 -v -run 'TestBootOrderOracle' ./internal/dump | grep -E '^(---|ok|FAIL)|fired' || true
go test -count=1 -v -run 'TestChaosDeterminism' ./internal/chaos | grep -E '^(---|ok|FAIL)|fired' || true

echo "== artifacts that moved"
git status --short -- 'BENCH_*.json' CHAOS_MATRIX.json cmd/chanos-sim/testdata
