#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate plus quick experiment smokes.
#
# Usage: scripts/verify.sh [-short]
#   -short   skip the experiment smokes (build/vet/chanos-vet/gofmt/
#            test, perf/ vet + test and race tier only)
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== chanos-vet ./... (determinism + no-shared-memory contracts)"
# Hard gate: any non-waived finding from the four custom analyzers
# (mapiter, wallclock, sharedstate, msgownership) fails the build.
# Suppression is only possible via inline, justified
# //chanos:allow waivers, which the tool counts and prints.
go run ./cmd/chanos-vet ./...

echo "== gofmt check"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go test ./..."
go test ./...

echo "== perf/: go vet + go test"
# perf/ is its own module and the root ./... patterns skip it. It
# builds against dump, store and cluster, so an API change there that
# breaks the benchmark must fail here, not in a benchmark run.
(cd perf && go vet ./... && go test ./...)

echo "== go test -race -short ./..."
# The race tier runs in -short mode too: the simulator's contract is
# no shared memory outside the engine layer, and the detector holds
# the engine/device layer (the one place goroutines are allowed) to
# it. Long sweeps are skipped — the schedules they explore don't add
# new happens-before edges, just more of the same ones.
go test -race -short ./...

if [ "$short" = "0" ]; then
    echo "== E14 netstack smoke (quick)"
    out=$(go run ./cmd/chanos-bench -run E14 -quick)
    echo "$out"
    # The table must exist and must not report a dead netstack: every
    # conns/sec cell being 0.00 means the stack served nothing.
    echo "$out" | grep -q "E14 / netstack scaling" || {
        echo "verify: E14 table missing" >&2
        exit 1
    }
    if ! echo "$out" | awk '/^(4|16|64|256) /{ if ($3 != "0.00") ok=1 } END { exit !ok }'; then
        echo "verify: netstack served zero connections in every configuration" >&2
        exit 1
    fi

    echo "== E15 store smoke (quick, -json)"
    out=$(go run ./cmd/chanos-bench -run E15 -quick -json)
    echo "$out"
    echo "$out" | grep -q "E15 / store scaling" || {
        echo "verify: E15 table missing" >&2
        exit 1
    }
    # The cores-sweep rows must show a live store: some ops/sec cell != 0.
    # Slice out the cores-sweep table first — E15b/E15c rows also start
    # with a small integer, but their $3 is a different column.
    if ! echo "$out" | sed -n '/E15 \/ store scaling/,/^$/p' \
        | awk '/^(4|16|64|128) /{ if ($3 != "0.00") ok=1 } END { exit !ok }'; then
        echo "verify: store served zero operations in every configuration" >&2
        exit 1
    fi
    # The E15d sustained-churn table is the compaction gate: a tiny-region
    # workload writes many times the log capacity, and not one write may
    # be refused ("refused" column all 0) while compactions actually run.
    churn=$(echo "$out" | sed -n '/E15d \/ sustained churn/,/^$/p')
    [ -n "$churn" ] || {
        echo "verify: E15d churn table missing" >&2
        exit 1
    }
    if ! echo "$churn" | awk '/^[0-9]/{ rows++; if ($3 != "0") bad=1; if ($4+0 > 0) compacted=1 }
        END { exit !(rows > 0 && !bad && compacted) }'; then
        echo "verify: churn workload had writes refused (or never compacted)" >&2
        exit 1
    fi

    # The conservation column gates the metric plane: every cores-sweep
    # row's final telemetry snapshot must balance its read/write/ack/flush
    # laws ("ok", never "N VIOLATED").
    if ! echo "$out" | sed -n '/E15 \/ store scaling/,/^$/p' \
        | awk '/^(4|16|64|128) /{ rows++; if ($NF != "ok") bad=1 } END { exit !(rows > 0 && !bad) }'; then
        echo "verify: an E15 telemetry snapshot violated its conservation laws" >&2
        exit 1
    fi

    # -json must have produced a parseable artifact with rows in it.
    test -s BENCH_E15.json || {
        echo "verify: BENCH_E15.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' BENCH_E15.json || {
        echo "verify: BENCH_E15.json has no rows" >&2
        exit 1
    }
    # ...and the embedded telemetry snapshot (full per-service metric
    # state, the CI artifact's machine-readable core).
    grep -q '"telemetry"' BENCH_E15.json || {
        echo "verify: BENCH_E15.json has no embedded telemetry snapshot" >&2
        exit 1
    }

    echo "== E16 replication smoke (quick, -json)"
    out=$(go run ./cmd/chanos-bench -run E16 -quick -json)
    echo "$out"
    echo "$out" | grep -q "E16 / replication cost" || {
        echo "verify: E16 table missing" >&2
        exit 1
    }
    # The survival table is the machine-loss durability gate: every
    # seeded primary-kill row must have tracked acked PUTs and a "lost"
    # column of exactly 0.
    kills=$(echo "$out" | sed -n '/E16b \/ acked-write survival/,/^$/p')
    [ -n "$kills" ] || {
        echo "verify: E16b survival table missing" >&2
        exit 1
    }
    if ! echo "$kills" | awk '/^[0-9]/{ rows++; if ($3+0 == 0) bad=1; if ($6 != "0") bad=1 }
        END { exit !(rows > 0 && !bad) }'; then
        echo "verify: a seeded primary kill lost acked writes (or tracked none)" >&2
        exit 1
    fi
    test -s BENCH_E16.json || {
        echo "verify: BENCH_E16.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' BENCH_E16.json || {
        echo "verify: BENCH_E16.json has no rows" >&2
        exit 1
    }

    echo "== E17 heal smoke (quick, -json)"
    out=$(go run ./cmd/chanos-bench -run E17 -quick -json)
    echo "$out"
    # The heal table is the lifecycle gate: every kill -> failover ->
    # re-attach cycle must end back at quorum ("quorum" column yes) with
    # zero acked writes lost, and the runtime re-attach cycles must have
    # actually streamed a bootstrap image (sync records > 0).
    heals=$(echo "$out" | sed -n '/E17 \/ quorum healing/,/^$/p')
    [ -n "$heals" ] || {
        echo "verify: E17 heal table missing" >&2
        exit 1
    }
    if ! echo "$heals" | awk '/^[0-9]/{ rows++; if ($NF != "yes") bad=1; if ($(NF-1) != "0") bad=1;
        if ($2 == "runtime") { runtime++; if ($4+0 == 0) bad=1 } }
        END { exit !(rows >= 3 && runtime >= 2 && !bad) }'; then
        echo "verify: a heal cycle lost acked writes, never reached quorum, or never synced" >&2
        exit 1
    fi
    # The live-scrape table is the observability gate: every cycle's
    # wire STATS request must have returned a snapshot ("scraped" yes)
    # whose conservation laws hold (violations 0) — including the
    # runtime-attach cycles where the scrape lands mid-heal.
    scrapes=$(echo "$out" | sed -n '/E17c \/ live STATS scrape/,/^$/p')
    [ -n "$scrapes" ] || {
        echo "verify: E17c live-scrape table missing" >&2
        exit 1
    }
    if ! echo "$scrapes" | awk '/^[0-9]/{ rows++; if ($2 != "yes") bad=1; if ($5 != "0") bad=1 }
        END { exit !(rows >= 3 && !bad) }'; then
        echo "verify: a live STATS scrape failed or returned an unbalanced snapshot" >&2
        exit 1
    fi

    # The replica-read sweep must show the healed pair's second index
    # lifting GET throughput by at least 1.5x at fixed cores.
    reads=$(echo "$out" | sed -n '/E17b \/ replica reads/,/^$/p')
    [ -n "$reads" ] || {
        echo "verify: E17b replica-read table missing" >&2
        exit 1
    }
    if ! echo "$reads" | awk '/^replica-reads /{ if ($NF+0 >= 1.5) ok=1 } END { exit !ok }'; then
        echo "verify: replica reads lifted GET throughput by less than 1.5x" >&2
        exit 1
    fi
    test -s BENCH_E17.json || {
        echo "verify: BENCH_E17.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' BENCH_E17.json || {
        echo "verify: BENCH_E17.json has no rows" >&2
        exit 1
    }
    grep -q '"telemetry"' BENCH_E17.json || {
        echo "verify: BENCH_E17.json has no embedded telemetry snapshot" >&2
        exit 1
    }

    echo "== E18 cluster smoke (quick, -json)"
    out=$(go run ./cmd/chanos-bench -run E18 -quick -json)
    echo "$out"
    # The phase table is the cluster gate: across baseline -> minority
    # replica kill -> live migration, the routed fleet may lose nothing
    # (lost, errs and audit-lost all 0 on every row), the kill row must
    # actually tolerate a replica loss, and the migration row must have
    # flipped the map to version 2.
    phases=$(echo "$out" | sed -n '/E18 \/ cluster fabric/,/^$/p')
    [ -n "$phases" ] || {
        echo "verify: E18 phase table missing" >&2
        exit 1
    }
    if ! echo "$phases" | awk '/^(baseline|minority-kill|migration) /{
        rows++; if ($6 != "0" || $7 != "0" || $11 != "0") bad=1
        if ($1 == "minority-kill" && $8+0 < 1) bad=1
        if ($1 == "migration" && $9 != "2") bad=1 }
        END { exit !(rows == 3 && !bad) }'; then
        echo "verify: the cluster lost requests or acked writes, never tolerated the kill, or never flipped the map" >&2
        exit 1
    fi
    test -s BENCH_E18.json || {
        echo "verify: BENCH_E18.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' BENCH_E18.json || {
        echo "verify: BENCH_E18.json has no rows" >&2
        exit 1
    }
    grep -q '"telemetry"' BENCH_E18.json || {
        echo "verify: BENCH_E18.json has no embedded telemetry snapshot" >&2
        exit 1
    }

    echo "== cluster scenario gate (9 machines, one engine)"
    # chanos-sim's cluster scenario must serve its requests with nothing
    # lost — same seed, same config, one shared engine across 9 machines
    # (the dump → replay-to-event-N → byte-equal redump loop for this
    # scenario is gated by the internal/dump cluster test levels).
    out=$(go run ./cmd/chanos-sim -scenario cluster -machines 3 -rf 2 \
        -cores 8 -requests 200 -keys 120 -seed 9)
    echo "$out"
    echo "$out" | grep -Eq 'served (2[0-9][0-9])/200 requests .* 0 errors, 0 lost' || {
        echo "verify: the cluster scenario dropped requests" >&2
        exit 1
    }

    echo "== core-dump gate (inject disk write failure -> dump -> replay)"
    # A seeded kvload run with one injected log-device write failure must
    # fail-stop the shard and write a machine core dump...
    out=$(go run ./cmd/chanos-sim -scenario kvload -cores 8 -clients 8 \
        -requests 300 -keys 64 -logblocks 64 -seed 7 \
        -fail-writes 1 -dump-on-fail .)
    echo "$out"
    dumpfile=$(echo "$out" | sed -n 's/^dump written: //p')
    [ -n "$dumpfile" ] && [ -s "$dumpfile" ] || {
        echo "verify: injected write failure produced no core dump" >&2
        exit 1
    }
    # ...that passes structural validation...
    go run ./cmd/chanos-dump -validate "$dumpfile" || {
        echo "verify: core dump failed structural validation" >&2
        exit 1
    }
    # ...whose human summary renders every machine (this path also
    # exits 1 on a structurally invalid dump)...
    go run ./cmd/chanos-dump "$dumpfile" || {
        echo "verify: core dump summary failed" >&2
        exit 1
    }
    # ...and time-travels: -replay rebuilds the world from the dump's
    # (seed, config) and must halt at exactly the recorded event count,
    # with the halted machine state matching the dump (the -redump file
    # is byte-compared structurally by chanos-dump -diff).
    rout=$(go run ./cmd/chanos-sim -replay "$dumpfile" -redump DUMP_GATE2.dump.json)
    echo "$rout"
    echo "$rout" | grep -Eq 'halted at event ([0-9]+) \(recorded \1\)' || {
        echo "verify: replay did not halt at the recorded event count" >&2
        exit 1
    }
    go run ./cmd/chanos-dump -diff "$dumpfile" DUMP_GATE2.dump.json || {
        echo "verify: replayed machine state diverges from the dump" >&2
        exit 1
    }
    rm -f "$dumpfile" DUMP_GATE2.dump.json

    echo "== chaos matrix gate (seeded fault schedules, four invariants)"
    # A sweep of 100 seeded schedules — kills, disk write failures,
    # wire loss, NIC slowdowns, migrations — fanned across the scenario
    # matrix must come back all green on the four invariants (zero
    # acked-write loss, no client hang, bounded staleness, fail-stop-
    # or-heal). A red exits non-zero and fails the gate; the summary
    # JSON is the CI artifact.
    out=$(go run ./cmd/chanos-sim -chaos-seeds 100 \
        -chaos-out CHAOS_MATRIX.json -dump-on-fail .)
    echo "$out"
    test -s CHAOS_MATRIX.json || {
        echo "verify: CHAOS_MATRIX.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' CHAOS_MATRIX.json || {
        echo "verify: CHAOS_MATRIX.json has no rows" >&2
        exit 1
    }

    echo "== artifact pin (regenerated JSON must match the committed files)"
    # Every simulated number is deterministic, so the E15-E18 smokes and
    # the chaos sweep above must rewrite their artifacts byte for byte.
    # A diff means a change moved a simulated event: commit the new
    # artifacts together with the reason, or find the leak.
    git diff --exit-code -- BENCH_E15.json BENCH_E16.json BENCH_E17.json BENCH_E18.json CHAOS_MATRIX.json || {
        echo "verify: a regenerated artifact differs from the committed one" >&2
        exit 1
    }

    # ...and the matrix must be able to CATCH a red: a deliberately
    # unsound schedule (silent index bitrot late in the run) must trip
    # the acked-loss invariant, write a machine dump, and that dump's
    # replay must halt at the exact recorded event with byte-equal
    # state — the whole red -> dump -> one-command repro loop.
    if out=$(go run ./cmd/chanos-sim -chaos-schedule "cy:4000000:bitrot:0:3" \
        -seed 7 -shards 2 -clients 12 -requests 240 -readpct 60 \
        -keys 96 -logblocks 64 -dump-on-fail .); then
        echo "verify: the deliberately red bitrot schedule came back green" >&2
        exit 1
    fi
    echo "$out"
    echo "$out" | grep -q 'RED: violations \[acked-loss\]' || {
        echo "verify: the bitrot red named the wrong invariant" >&2
        exit 1
    }
    dumpfile=$(echo "$out" | sed -n 's/^  dump: //p')
    [ -n "$dumpfile" ] && [ -s "$dumpfile" ] || {
        echo "verify: the red chaos run wrote no dump" >&2
        exit 1
    }
    rout=$(go run ./cmd/chanos-sim -replay "$dumpfile")
    echo "$rout"
    echo "$rout" | grep -Eq 'halted at event ([0-9]+) \(recorded \1\)' || {
        echo "verify: chaos replay did not halt at the recorded event count" >&2
        exit 1
    }
    echo "$rout" | grep -q 'matches the dump exactly' || {
        echo "verify: replayed chaos machine state diverges from the dump" >&2
        exit 1
    }
    rm -f "$dumpfile"
fi

echo "verify: OK"
