#!/usr/bin/env bash
# perfpair.sh — alternating parent/change runs of one perf workload.
#
# Usage: scripts/perfpair.sh REV WORKLOAD N [SECONDS]
#
# Checks REV out in a git worktree under .bench_build/perfpair/parent and
# this checkout's working tree (tracked and untracked files, as `git add
# -A` would stage them, committed from a throwaway index) in a second one
# under .bench_build/perfpair/change, and runs N pairs of
# `bash perf/bench.sh -workload WORKLOAD -seconds SECONDS` (SECONDS
# defaults to 0, one world per run; the benchmark itself runs 10, which
# is where max_rss_mb is judged, because the collector's pacing moves it
# at short runs), one in each worktree, the parent first in odd pairs and
# the change first in even ones, so that a drift in the host's load falls
# on both sides alike. The two sides build and run from directories that
# differ only in their last name, so only the code differs between them:
# run from the checkout itself, a side read setup_s 4% worse in 9 of 10
# pairs and moved host_allocs_per_op against a worktree of the same
# commit. It then prints, for every end-to-end metric BENCHMARK.json
# declares, each side's median and quartiles, and how many pairs the
# change won, tied and lost by the metric's direction. Host deltas are
# judged this way (ROADMAP.md: alternating pairs), because one run of
# either side says little on a noisy host.
#
# Every run has GODEBUG=gctrace=1, and two more rows come from its trace:
# gc_peak_live_mb, the largest live heap a collection left (the `->N MB`
# figure), and gc_cycles, the number of collections. The first tells
# retention from the collector's pacing when max_rss_mb moves; fewer
# cycles is not better in itself, so read gc_cycles' won/lost as a count.
#
# It then checks that no engine event moved: perf prints one line per
# world it runs to stderr ("<workload> seed S <kind> rep: ..., N ops,
# F failed, E events"), and both sides of every pair must agree on each
# world's ops, failed ops and event count, over the worlds both ran (a
# run of SECONDS > 0 runs as many as fit), and on the result's correct
# field. It prints "events: identical in N pairs" or the first pair and
# world that differ, and exits 1 on a difference.
#
# Each run's stdout (its last line is the result) and stderr (world lines
# and the GC trace) go to .bench_build/perfpair/runs/; the worktrees are
# removed on exit. The script writes nothing outside .bench_build/ but
# git's own worktree records and the objects of the change side's
# commit, and changes nothing under perf/.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/perfpair.sh REV WORKLOAD N [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 n=$3 seconds=${4:-0}
cd "$(dirname "$0")/.."
root=$PWD
dir=$root/.bench_build/perfpair
for side in parent change; do
    git worktree remove --force "$dir/$side" 2>/dev/null || true
    rm -rf "${dir:?}/$side"
done
rm -rf "$dir/runs" "$dir/index"
git worktree prune
mkdir -p "$dir/runs"
# The change side is the working tree as a commit, made through an index
# of its own so that the checkout's index stays as it is.
GIT_INDEX_FILE=$dir/index git add -A
change=$(git -c user.name=perfpair -c user.email=perfpair@localhost commit-tree -p HEAD -m "perfpair change side" "$(GIT_INDEX_FILE=$dir/index git write-tree)")
rm -f "$dir/index"
git worktree add --quiet --detach "$dir/parent" "$rev"
git worktree add --quiet --detach "$dir/change" "$change"
trap 'for side in parent change; do git -C "$root" worktree remove --force "$dir/$side"; done' EXIT

run() { # side pair
    (cd "$dir/$1" && GODEBUG=gctrace=1 bash perf/bench.sh -workload "$workload" -seconds "$seconds") \
        >"$dir/runs/$1.$2.out" 2>"$dir/runs/$1.$2.err"
    tail -n 1 "$dir/runs/$1.$2.out" >"$dir/runs/$1.$2.json"
    echo "pair $2 $1: $(head -c 160 "$dir/runs/$1.$2.json")..." >&2
}
for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then run parent $i; run change $i; else run change $i; run parent $i; fi
done

# The perf process's GC trace: its peak live heap in MB and its cycles.
# bench.sh runs go build first, whose own trace (if it collects at all)
# comes earlier, so the perf process's trace starts at the last "gc 1 @".
gctrace() { # run.err
    awk '/^gc 1 @/ { peak = 0; n = 0 }
        /^gc [0-9]+ @/ {
            n++
            if (match($0, /->[0-9]+ MB/) && substr($0, RSTART + 2, RLENGTH - 5) + 0 > peak)
                peak = substr($0, RSTART + 2, RLENGTH - 5) + 0
        }
        END { printf "gc_peak_live_mb %d\ngc_cycles %d\n", peak, n }' "$1"
}

# One line per run and metric: side pair metric value; the directions
# come from BENCHMARK.json's end_to_end entries, one per line.
for f in "$dir"/runs/*.json; do
    b=$(basename "$f" .json)
    {
        grep -o '"[a-z_0-9]*":{"value":[-0-9.e+]*' "$f" | sed 's/^"\([^"]*\)":{"value":/\1 /'
        grep -o '"failed":[0-9]*' "$f" | sed 's/"failed":/failed_ops /'
        gctrace "$dir/runs/$b.err"
    } | sed "s/^/${b%%.*} ${b#*.} /"
done | awk -v n="$n" '
    FNR == NR {
        if (match($0, /"name": *"[a-z_0-9]*"/)) {
            name = substr($0, RSTART, RLENGTH); sub(/.*"name": *"/, "", name); sub(/"$/, "", name)
            if ($0 ~ /"better": *"higher"/) dir[name] = 1
            else if ($0 ~ /"better": *"lower"/) dir[name] = -1
        }
        next
    }
    { v[$1, $3, $2] = $4; seen[$3] = 1 }
    function q(side, m, p,    k, a, i, j, t, c, x) {
        c = 0
        for (i = 1; i <= n; i++) if ((side, m, i) in v) a[++c] = v[side, m, i]
        for (i = 2; i <= c; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
        if (c == 0) return "nan"
        x = 1 + (c - 1) * p; k = int(x)
        return k >= c ? a[c] : a[k] + (x - k) * (a[k+1] - a[k])
    }
    END {
        dir["failed_ops"] = dir["gc_peak_live_mb"] = dir["gc_cycles"] = -1
        printf "%-20s %-42s %-42s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change won/tied/lost"
        for (m in seen) {
            if (!(m in dir)) continue
            w = t = l = 0
            for (i = 1; i <= n; i++) {
                d = (v["change", m, i] - v["parent", m, i]) * dir[m]
                if (d > 0) w++; else if (d < 0) l++; else t++
            }
            printf "%-20s %-42s %-42s %d/%d/%d\n", m,
                sprintf("%.8g [%.8g, %.8g]", q("parent", m, 0.5), q("parent", m, 0.25), q("parent", m, 0.75)),
                sprintf("%.8g [%.8g, %.8g]", q("change", m, 0.5), q("change", m, 0.25), q("change", m, 0.75)),
                w, t, l
        }
    }' BENCHMARK.json - | { read -r head; echo "$head"; sort; }

# One line per world a run ran: its ops, failed ops and event count.
worlds() { # side pair
    sed -n 's/^\([^ ]* seed [0-9]* [a-z]*\) rep: .*, \([0-9]* ops, [0-9]* failed, [0-9]* events\)$/\1: \2/p' "$dir/runs/$1.$2.err"
}
for ((i = 1; i <= n; i++)); do
    k=$(worlds parent $i | wc -l)
    kc=$(worlds change $i | wc -l)
    if ((k == 0 || kc == 0)); then
        echo "events: pair $i: a run printed no world" >&2
        exit 1
    fi
    ((kc < k)) && k=$kc
    if ! d=$(diff <(worlds parent $i | head -n "$k"; grep -o '"correct":[a-z]*' "$dir/runs/parent.$i.json") \
        <(worlds change $i | head -n "$k"; grep -o '"correct":[a-z]*' "$dir/runs/change.$i.json")); then
        p=$(awk '/^< /{print substr($0, 3); exit}' <<<"$d")
        c=$(awk '/^> /{print substr($0, 3); exit}' <<<"$d")
        echo "events: pair $i differs: parent '${p:-nothing}', change '${c:-nothing}'" >&2
        exit 1
    fi
done
echo "events: identical in $n pairs"
