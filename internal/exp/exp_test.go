package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"chanos/internal/baseline"
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/vm"
)

var q = Options{Quick: true, Seed: 42}

// --- E1: the headline scaling shape ---

// The paper's crossover: fine-grained locking holds on to ~128 cores
// ("By great effort Solaris has been made to scale to perhaps 128
// cores"), then messages win in the hundreds.
func TestE1MessageBeatsLocksAtScale(t *testing.T) {
	big := e1Lock(q, 256, baseline.BigLock)
	fine := e1Lock(q, 256, baseline.FineGrained)
	msg := e1Msg(q, 256, 0.25, nil)
	if !(fine > big) {
		t.Fatalf("fine-grained (%v) should beat big lock (%v) at 256 cores", fine, big)
	}
	if !(msg > fine) {
		t.Fatalf("message kernel (%v) should beat fine-grained (%v) at 256 cores", msg, fine)
	}
	// At 64 cores fine-grained is still allowed to be competitive
	// (within 2x either way) — that is the "great effort" regime.
	fine64 := e1Lock(q, 64, baseline.FineGrained)
	msg64 := e1Msg(q, 64, 0.25, nil)
	if msg64 > 2*fine64 || fine64 > 2*msg64 {
		t.Fatalf("at 64 cores the designs should be comparable: msg %v vs fine %v", msg64, fine64)
	}
}

func TestE1BigLockStopsScaling(t *testing.T) {
	at4 := e1Lock(q, 4, baseline.BigLock)
	at64 := e1Lock(q, 64, baseline.BigLock)
	// 16x the cores must NOT give anywhere near 16x the throughput.
	if at64 > at4*4 {
		t.Fatalf("big lock scaled too well: %v @4 cores -> %v @64 cores", at4, at64)
	}
}

func TestE1MessageKernelScales(t *testing.T) {
	at4 := e1Msg(q, 4, 0.25, nil)
	at64 := e1Msg(q, 64, 0.25, nil)
	if at64 < at4*6 {
		t.Fatalf("message kernel scaled poorly: %v @4 -> %v @64 (want >6x)", at4, at64)
	}
}

// --- E2: syscall mechanisms ---

func TestE2MessageSyscallBeatsTrap(t *testing.T) {
	tl, tt := e2Trap(q, 0)
	sl, st := e2MsgSync(q)
	if sl >= tl {
		t.Fatalf("message syscall latency %v >= trap %v", sl, tl)
	}
	if st <= tt {
		t.Fatalf("message syscall throughput %v <= trap %v", st, tt)
	}
}

func TestE2AsyncBatchingBeatsSync(t *testing.T) {
	_, st := e2MsgSync(q)
	_, at := e2MsgAsync(q)
	if at <= st {
		t.Fatalf("async batching (%v) should beat sync (%v)", at, st)
	}
}

// --- E4: unwind/redo waste ---

func TestE4SignalsWasteChannelsDont(t *testing.T) {
	sig := e4Run(q, 100_000, true)
	chn := e4Run(q, 100_000, false)
	if sig.WastedCycles == 0 {
		t.Fatal("signal model wasted nothing")
	}
	if chn.WastedCycles != 0 {
		t.Fatalf("channel model wasted %d cycles", chn.WastedCycles)
	}
	lo := e4Run(q, 1_000, true)
	if lo.WastedCycles >= sig.WastedCycles {
		t.Fatalf("waste should grow with signal rate: %d @1k >= %d @100k",
			lo.WastedCycles, sig.WastedCycles)
	}
}

// --- E6: VM granularity ---

func TestE6PerPageIsTooManyThreads(t *testing.T) {
	tb := e6VMGranularity(q)[0]
	counts := column(t, tb, "service threads")
	threads := map[string]int{}
	for i, g := range column(t, tb, "granularity") {
		var n int
		if _, err := fmt.Sscan(counts[i], &n); err != nil {
			t.Fatalf("bad thread count %q", counts[i])
		}
		threads[g] = n
	}
	if threads[vm.PerPage.String()] <= 10*threads[vm.PerRegion.String()] {
		t.Fatalf("per-page should spawn far more threads: %v", threads)
	}
	if threads[vm.LibOS.String()] != 0 {
		t.Fatalf("libos should spawn no service threads: %v", threads)
	}
}

// --- E7: availability ---

func TestE7SupervisionRestartIsFast(t *testing.T) {
	restart := e7MeasuredRestart(q)
	if restart <= 0 {
		t.Fatal("no restart latency measured")
	}
	// A restart must be far below a 30 s reboot (6e10 cycles); demand
	// under 10 ms (2e7 cycles).
	if restart > 2e7 {
		t.Fatalf("restart latency %v cycles is not 'not failing' territory", restart)
	}
}

// --- E11: choice implementations ---

func TestE11WaitersBeatPollingWhenIdle(t *testing.T) {
	polls := column(t, e11Choice(q)[0], "poll wasted polls/op")
	if len(polls) == 0 {
		t.Fatal("no rows")
	}
	// The poll column must show nonzero wasted polls.
	if last := polls[len(polls)-1]; last == "0.00" {
		t.Fatalf("poll implementation recorded no polls at the widest k: %s", last)
	}
}

// --- E12: copy tax ---

func TestE12CopyTaxGrowsWithSize(t *testing.T) {
	zcSmall, _ := e12run(q, false, 16)
	scSmall, _ := e12run(q, true, 16)
	zcBig, _ := e12run(q, false, 65536)
	scBig, copied := e12run(q, true, 65536)
	taxSmall := scSmall / zcSmall
	taxBig := scBig / zcBig
	if taxBig <= taxSmall {
		t.Fatalf("copy tax should grow with size: %v (16B) vs %v (64KB)", taxSmall, taxBig)
	}
	if copied == 0 {
		t.Fatal("no bytes copied recorded")
	}
}

// --- E13: the cluster-of-VMs strawman ---

func TestE13ChanOSBeatsVMClusterWithSharing(t *testing.T) {
	window := sim.Time(1_500_000)
	c := e13ChanOS(q, 64, 0.3, window)
	v := e13Cluster(q, 64, 4, 0.3, window)
	if c <= v {
		t.Fatalf("chanOS (%v) should beat VM cluster (%v) at 30%% remote", c, v)
	}
	// With no sharing the cluster is competitive (fully partitioned).
	c0 := e13ChanOS(q, 64, 0, window)
	v0 := e13Cluster(q, 64, 4, 0, window)
	if v0 < c0/3 {
		t.Fatalf("fully partitioned cluster should be competitive: chanos %v vs cluster %v", c0, v0)
	}
}

// --- E9: no policy dominates both workloads ---

func TestE9StealingWinsFanOutLocalityFine(t *testing.T) {
	mk := map[string]func() core.Scheduler{}
	for _, p := range e9Policies(q) {
		mk[p.name] = p.mk
	}
	wsFan := e9FanOut(q, 16, mk["work-stealing"]())
	rrFan := e9FanOut(q, 16, mk["round-robin"]())
	if wsFan <= rrFan {
		t.Fatalf("work-stealing (%v) should beat round-robin (%v) on irregular fan-out", wsFan, rrFan)
	}
	randPipe := e9Pipeline(q, 16, mk["random"]())
	rrPipe := e9Pipeline(q, 16, mk["round-robin"]())
	if randPipe >= rrPipe {
		t.Fatalf("random (%v) should lose to round-robin (%v) on the pipeline", randPipe, rrPipe)
	}
}

// --- E10 via its table ---

func TestE10TableFlagsSeededBugs(t *testing.T) {
	tb := e10Proto(q)[0]
	verdicts := column(t, tb, "verdict")
	bugRows, cleanRows := 0, 0
	for i, p := range column(t, tb, "protocol") {
		if strings.HasPrefix(p, "bug.") {
			if verdicts[i] != "BUG" {
				t.Fatalf("seeded bug not flagged: %v", tb.Rows[i])
			}
			bugRows++
		} else {
			if verdicts[i] != "ok" {
				t.Fatalf("clean protocol flagged: %v", tb.Rows[i])
			}
			cleanRows++
		}
	}
	if bugRows != 2 || cleanRows != 7 {
		t.Fatalf("unexpected corpus shape: %d bugs, %d clean", bugRows, cleanRows)
	}
}

// --- E14: netstack scaling ---

func TestE14NetstackScalesWithCoresAndShards(t *testing.T) {
	window := sim.Time(4_000_000)
	at4 := e14Run(q, 4, 0, 96, window)
	at16 := e14Run(q, 16, 0, 96, window)
	at64 := e14Run(q, 64, 0, 96, window)
	if !(at4.connsPerSec < at16.connsPerSec && at16.connsPerSec < at64.connsPerSec) {
		t.Fatalf("conns/sec should grow with cores: %.0f @4, %.0f @16, %.0f @64",
			at4.connsPerSec, at16.connsPerSec, at64.connsPerSec)
	}
	if at64.p99Us >= at4.p99Us {
		t.Fatalf("p99 should shrink with cores: %.1fus @4 vs %.1fus @64", at4.p99Us, at64.p99Us)
	}
	one := e14Run(q, 64, 1, 96, window)
	two := e14Run(q, 64, 2, 96, window)
	if two.reqsPerSec < one.reqsPerSec {
		t.Fatalf("2 shards (%.0f req/s) should serve at least 1 shard (%.0f req/s)",
			two.reqsPerSec, one.reqsPerSec)
	}
}

// --- E15: store scaling ---

// TestE15StoreScalesWithCores is the tentpole acceptance check: ops/sec
// through the full client→wire→netstack→store→log path must grow
// monotonically over a 4→64 core sweep with store shards = cores.
func TestE15StoreScalesWithCores(t *testing.T) {
	window := sim.Time(4_000_000)
	at4 := e15Run(q, 4, 4, 96, 70, window)
	at16 := e15Run(q, 16, 16, 96, 70, window)
	at64 := e15Run(q, 64, 64, 96, 70, window)
	if !(at4.opsPerSec < at16.opsPerSec && at16.opsPerSec < at64.opsPerSec) {
		t.Fatalf("ops/sec should grow with cores: %.0f @4, %.0f @16, %.0f @64",
			at4.opsPerSec, at16.opsPerSec, at64.opsPerSec)
	}
	if at64.p99Us >= at4.p99Us {
		t.Fatalf("p99 should shrink with cores: %.1fus @4 vs %.1fus @64", at4.p99Us, at64.p99Us)
	}
	if at4.ackedWrites == 0 || at64.hitRate <= 0 {
		t.Fatalf("store served no real traffic: %+v", at4)
	}
	one := e15Run(q, 64, 1, 96, 50, window)
	two := e15Run(q, 64, 2, 96, 50, window)
	if two.opsPerSec < one.opsPerSec {
		t.Fatalf("2 store shards (%.0f ops/s) should serve at least 1 shard (%.0f ops/s)",
			two.opsPerSec, one.opsPerSec)
	}
}

// --- E16: replication ---

// TestE16QuorumCostsLatencyButLosesNothing: quorum acks must cost p99
// (an inter-machine RTT plus the replica's group commit is real work),
// and a primary kill must lose zero acknowledged writes.
func TestE16QuorumCostsLatencyButLosesNothing(t *testing.T) {
	window := sim.Time(4_000_000)
	local := e16Run(q, 16, 16, 64, 70, window, false)
	quorum := e16Run(q, 16, 16, 64, 70, window, true)
	if quorum.replBatches == 0 || quorum.replRecords == 0 {
		t.Fatalf("quorum mode shipped nothing: %+v", quorum)
	}
	if local.replBatches != 0 {
		t.Fatalf("local mode shipped replication batches: %+v", local)
	}
	if quorum.p99Us <= local.p99Us {
		t.Fatalf("quorum p99 (%.1fus) should exceed local p99 (%.1fus): the RTT is not free",
			quorum.p99Us, local.p99Us)
	}
	if quorum.ackedWrites == 0 {
		t.Fatal("quorum mode acked nothing")
	}
	kill := e16Kill(q, 42, 3_000_000)
	if kill.ackedPuts == 0 || kill.tracked == 0 {
		t.Fatalf("kill run tracked no acked PUTs: %+v", kill)
	}
	if kill.lost != 0 {
		t.Fatalf("primary kill lost %d acked writes (of %d tracked keys)", kill.lost, kill.tracked)
	}
	if kill.replayed == 0 {
		t.Fatal("failover recovery replayed nothing")
	}
}

// --- E17: quorum healing and replica reads ---

// TestE17HealCyclesLoseNothing: every kill -> failover -> re-attach
// cycle must end back at quorum having lost zero acked writes, with the
// runtime re-attach cycles actually streaming a bootstrap image; and
// routing GETs to the replica must lift GET throughput — the replica's
// index is capacity, not just insurance.
func TestE17HealCyclesLoseNothing(t *testing.T) {
	cycles := e17HealCycles(q, 3, sim.Time(3_000_000))
	if len(cycles) != 3 {
		t.Fatalf("ran %d cycles, want 3", len(cycles))
	}
	runtimeAttaches := 0
	for i, cy := range cycles {
		if !cy.quorum {
			t.Errorf("cycle %d never healed back to quorum", i+1)
		}
		if cy.lost != 0 {
			t.Errorf("cycle %d lost %d acked writes (of %d tracked)", i+1, cy.lost, cy.tracked)
		}
		if cy.ackedPuts == 0 || cy.tracked == 0 {
			t.Errorf("cycle %d tracked no acked PUTs: %+v", i+1, cy)
		}
		if cy.attach == "runtime" {
			runtimeAttaches++
			if cy.syncRecords == 0 {
				t.Errorf("runtime re-attach cycle %d streamed no bootstrap image", i+1)
			}
			if cy.heals == 0 {
				t.Errorf("runtime re-attach cycle %d healed no shards", i+1)
			}
		}
	}
	if runtimeAttaches < 2 {
		t.Fatalf("only %d runtime re-attach cycles ran, want >= 2", runtimeAttaches)
	}
	base := e17Reads(q, 64, sim.Time(4_000_000), false)
	repl := e17Reads(q, 64, sim.Time(4_000_000), true)
	if base.getsPerSec == 0 {
		t.Fatal("primary-only mode served no GETs")
	}
	if repl.getsPerSec < base.getsPerSec*1.5 {
		t.Fatalf("replica reads lifted GETs/sec only %.0f -> %.0f (< 1.5x)",
			base.getsPerSec, repl.getsPerSec)
	}
}

// --- E18: cluster fabric ---

// TestE18ClusterContract: the phase table's contract row by row — no
// request lost or errored in any phase, the minority replica kill
// tolerated, the migration committed (map version advanced) and the
// acked-write audit clean throughout.
func TestE18ClusterContract(t *testing.T) {
	tables := e18Cluster(q)
	if len(tables) < 2 || len(tables[0].Rows) != 3 {
		t.Fatalf("E18 produced the wrong shape: %d tables", len(tables))
	}
	tb := tables[0]
	lost, errs, auditLost := column(t, tb, "lost"), column(t, tb, "errs"), column(t, tb, "audit lost")
	tolerated, mapVer := column(t, tb, "tolerated"), column(t, tb, "map ver")
	for i, phase := range column(t, tb, "phase") {
		if lost[i] != "0" || errs[i] != "0" || auditLost[i] != "0" {
			t.Errorf("phase %s broke the contract: lost=%s errs=%s audit-lost=%s",
				phase, lost[i], errs[i], auditLost[i])
		}
		switch phase {
		case "minority-kill":
			if tolerated[i] == "0" {
				t.Error("minority kill was never tolerated")
			}
		case "migration":
			if mapVer[i] == "1" {
				t.Error("migration did not advance the map version")
			}
		}
	}
}

// TestE18ScalingContract: the fabric-scaling table (full mode only, so
// no quick pin covers it) keeps E18's audit contract at 3, 5 and 7
// serving nodes — nothing lost or errored, and a non-empty acked-write
// audit that finds nothing missing.
func TestE18ScalingContract(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size clusters in -short mode")
	}
	tb := e18Scaling(q, q.seed())
	nodes := column(t, tb, "nodes")
	if strings.Join(nodes, ",") != "3,5,7" {
		t.Fatalf("E18c rows are for %v nodes, want 3,5,7", nodes)
	}
	lost, errs := column(t, tb, "lost"), column(t, tb, "errs")
	auditKeys, auditLost := column(t, tb, "audit keys"), column(t, tb, "audit lost")
	for i, n := range nodes {
		if lost[i] != "0" || errs[i] != "0" || auditLost[i] != "0" {
			t.Errorf("%s nodes broke the contract: lost=%s errs=%s audit-lost=%s", n, lost[i], errs[i], auditLost[i])
		}
		if k, err := strconv.Atoi(auditKeys[i]); err != nil || k <= 0 {
			t.Errorf("%s nodes audited %q acked keys, want > 0", n, auditKeys[i])
		}
	}
}

// --- registry and full-suite smoke ---

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "E1", "E10", "E11", "E12", "E13",
		"E14", "E15", "E16", "E17", "E18", "E19", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Find("E1"); !ok {
		t.Fatal("Find(E1) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

// TestAllExperimentsProduceTables runs the full suite at quick scale,
// the settings of chanos-bench -quick: every experiment must emit at
// least one table with at least one row; where a BENCH_<id>.json is
// committed, the run must reproduce it byte for byte; where the
// experiment has gate predicates, its tables must satisfy them; and
// every goroutine the run started must have exited once it returns.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			before := runtime.NumGoroutine()
			b := RunBench(e, q)
			// A stopped worker's goroutine exits on its own schedule.
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("%s left %d goroutines running, %d before it ran", e.ID, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			tbls := b.Tables
			if len(tbls) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tbls {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tb.Title)
				}
				if len(tb.Cols) == 0 {
					t.Fatalf("%s table %q has no columns", e.ID, tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Cols) {
						t.Fatalf("%s table %q row width %d != %d cols",
							e.ID, tb.Title, len(r), len(tb.Cols))
					}
				}
			}
			if want, ok := readArtifact(t, e.ID); ok {
				if d := diffBench(b.JSON(), want); d != "" {
					t.Fatalf("%s differs from the committed %s: %s\n"+
						"if the change is meant, regenerate it with: go run ./cmd/chanos-bench -run %s -quick -json",
						e.ID, b.File(), d, e.ID)
				}
			}
			if gate := gates[e.ID]; gate != nil {
				if err := gate(t, tbls); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
