#!/usr/bin/env bash
# loc.sh — non-test Go lines outside perf/, per package and in total,
# preceded by the total of test Go lines.
#
# Usage: scripts/loc.sh
#
# Counts every *.go file not ending in _test.go, testdata fixtures
# included, and skips perf/ (a separate module) and hidden directories.
# The last line is the non-test total (verify.sh prints it with
# tail -n 1); these are the line counts ROADMAP.md and CHANGES.md quote.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
    find . -path ./perf -prune -o -path './.*' -prune -o -name '*.go' "$@" -type f -print | sort
}

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
