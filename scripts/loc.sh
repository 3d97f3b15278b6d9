#!/usr/bin/env bash
# loc.sh — non-test Go lines outside perf/, per package and in total,
# preceded by the total of test Go lines.
#
# Usage: scripts/loc.sh [REV]
#
# Counts every *.go file not ending in _test.go, testdata fixtures
# included, and skips perf/ (a separate module) and hidden directories.
# The last line is the non-test total (verify.sh prints it with
# tail -n 1); these are the line counts ROADMAP.md and CHANGES.md quote.
#
# With REV (any git revision), prints instead the non-test total at REV
# (counted in a `git archive` of it), the total in the worktree, and the
# signed difference, worktree minus REV, on the last line.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
    find . -path ./perf -prune -o -path './.*' -prune -o -name '*.go' "$@" -type f -print | sort
}

# nontest prints the non-test total of the tree in the current directory.
nontest() {
    gofiles ! -name '*_test.go' | xargs cat | wc -l
}

if [ $# -gt 0 ]; then
    rev=$1
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$rev" | tar -x -C "$tree"
    at=$(cd "$tree" && nontest)
    now=$(nontest)
    printf "%7d  total at %s\n" "$at" "$rev"
    printf "%7d  total\n" "$now"
    printf "%+7d  delta\n" "$((now - at))"
    exit 0
fi

tests=$(gofiles -name '*_test.go' | xargs cat | wc -l)
gofiles ! -name '*_test.go' | xargs wc -l | awk -v tests="$tests" '
        $2 == "total" { next }
        { n = split($2, p, "/"); dir = p[2]; for (i = 3; i < n; i++) dir = dir "/" p[i]
          if (n == 2) dir = "."
          lines[dir] += $1; total += $1 }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  test total\n", tests
            printf "%7d  total\n", total
        }'
