#!/usr/bin/env bash
# loc.sh — non-test Go lines outside perf/, per package and in total.
#
# Usage: scripts/loc.sh
#
# Counts every *.go file not ending in _test.go, testdata fixtures
# included, and skips perf/ (a separate module) and hidden directories.
# This is the line count ROADMAP.md and CHANGES.md quote.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -path ./perf -prune -o -path './.*' -prune -o \
    -name '*.go' ! -name '*_test.go' -type f -print |
    sort | xargs wc -l | awk '
        $2 == "total" { next }
        { n = split($2, p, "/"); dir = p[2]; for (i = 3; i < n; i++) dir = dir "/" p[i]
          if (n == 2) dir = "."
          lines[dir] += $1; total += $1 }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
