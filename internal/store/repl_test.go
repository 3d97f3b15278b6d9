package store

import (
	"fmt"
	"testing"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/telemetry"
)

// rw is a two-machine replication test world: a primary machine running
// the store under test and a ReplicaMachine on the same engine.
type rw struct {
	eng *sim.Engine
	m   *machine.Machine
	rt  *core.Runtime
	k   *kernel.Kernel
	kv  *Store
	rm  *ReplicaMachine
}

func newRW(cores int, p Params, seed uint64, wire net.WireParams, disks []*blockdev.Disk) *rw {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, disks)
	rm := NewReplicaMachine(eng, ReplicaMachineParams{
		Cores: cores, Seed: seed + 1, Store: p, Wire: wire,
	}, nil)
	kv.AttachReplica(rm)
	return &rw{eng: eng, m: m, rt: rt, k: k, kv: kv, rm: rm}
}

func (w *rw) shutdown() {
	w.rt.Shutdown()
	w.rm.Shutdown()
}

func quietWire(seed uint64) net.WireParams {
	wp := net.DefaultWireParams()
	wp.Seed = seed
	return wp
}

// TestQuorumReplicationMirrorsState: every acknowledged write is
// durable on BOTH machines; after the run the replica's own store
// answers with the primary's exact versions and values, including
// tombstones.
func TestQuorumReplicationMirrorsState(t *testing.T) {
	w := newRW(8, smallParams(), 41, quietWire(41), nil)
	defer w.shutdown()
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("q%02d", i)
			if r := w.kv.Put(th, key, []byte(fmt.Sprintf("v%d", i))); !r.OK || r.Ver != 1 {
				t.Errorf("put %s: %+v", key, r)
			}
		}
		if r := w.kv.Put(th, "q00", []byte("v0b")); !r.OK || r.Ver != 2 {
			t.Errorf("overwrite: %+v", r)
		}
		if r := w.kv.Delete(th, "q01"); !r.OK || !r.Found {
			t.Errorf("delete: %+v", r)
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished (a quorum ack never arrived)")
	}
	if w.kv.Counters().ReplBatches == 0 || w.kv.Counters().ReplAcks == 0 {
		t.Fatalf("no replication traffic: batches=%d acks=%d", w.kv.Counters().ReplBatches, w.kv.Counters().ReplAcks)
	}
	if w.rm.KV.Counters().ReplApplied == 0 {
		t.Fatal("replica applied nothing")
	}
	if w.rm.KV.Counters().AckedWrites != 0 {
		t.Fatalf("replica-side applies counted as client acks: %d", w.rm.KV.Counters().AckedWrites)
	}
	// Audit the replica's own store: same keys, same versions.
	checked := false
	w.rm.RT.Boot("audit", func(th *core.Thread) {
		if g := w.rm.KV.Get(th, "q00"); !g.Found || string(g.Val) != "v0b" || g.Ver != 2 {
			t.Errorf("replica q00 = %+v, want v0b ver 2", g)
		}
		if g := w.rm.KV.Get(th, "q01"); g.Found {
			t.Errorf("replica serves deleted key: %+v", g)
		}
		for i := 2; i < 20; i++ {
			key := fmt.Sprintf("q%02d", i)
			if g := w.rm.KV.Get(th, key); !g.Found || g.Ver != 1 {
				t.Errorf("replica %s = %+v", key, g)
			}
		}
		checked = true
	})
	w.rm.RT.Run()
	if !checked {
		t.Fatal("replica audit never finished")
	}
}

// TestFailoverAckedWritesSurvivePrimaryKill is the machine-loss
// durability contract: run a seeded write workload under quorum
// replication, kill the primary machine at an arbitrary instant
// (snapshot only the REPLICA's platters), boot a store from them, and
// assert every client-acknowledged write survives at (at least) its
// acknowledged version — the replica may additionally hold writes whose
// acks were in flight, but may never miss an acknowledged one.
func TestFailoverAckedWritesSurvivePrimaryKill(t *testing.T) {
	const seed = 43
	p := Params{Shards: 2, CacheBlocks: 4, FlushCycles: 20_000, LogBlocks: 64}
	w := newRW(8, p, seed, quietWire(seed), nil)

	type ack struct {
		ver uint64
		val string
	}
	acked := map[string]ack{}
	var ackedCount uint64
	rng := sim.NewRNG(seed)
	for wtr := 0; wtr < 4; wtr++ {
		wtr := wtr
		w.rt.Boot(fmt.Sprintf("writer.%d", wtr), func(th *core.Thread) {
			for round := 0; ; round++ {
				key := fmt.Sprintf("f%02d", rng.Uint64n(24))
				val := fmt.Sprintf("%s@w%d.%d", key, wtr, round)
				r := w.kv.Put(th, key, []byte(val))
				if !r.OK {
					return // shard condemned mid-kill; the audit is what matters
				}
				if old, ok := acked[key]; !ok || r.Ver > old.ver {
					acked[key] = ack{ver: r.Ver, val: val}
				}
				ackedCount++
			}
		})
	}
	// Run to an arbitrary mid-workload instant, then the primary dies.
	for step := 0; step < 4000 && ackedCount < 60; step++ {
		w.rt.RunFor(50_000)
	}
	if ackedCount < 60 {
		t.Fatalf("workload too slow: only %d acked writes", ackedCount)
	}
	var datas []map[int][]byte
	for _, d := range w.rm.KV.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	w.shutdown()

	// Failover: a fresh machine boots the store from the replica's
	// platters (the existing version-aware replay is the whole story).
	eng2 := sim.NewEngine()
	m2 := machine.New(eng2, machine.DefaultParams(8))
	rt2 := core.NewRuntime(m2, core.Config{Seed: seed + 7})
	defer rt2.Shutdown()
	k2 := kernel.New(rt2, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt2, pFilled(p), data))
	}
	kv2 := New(rt2, k2, p, disks)
	checked := false
	rt2.Boot("auditor", func(th *core.Thread) {
		for key, want := range acked {
			g := kv2.Get(th, key)
			if !g.Found {
				t.Errorf("acked write lost in failover: %s=%q (ver %d)", key, want.val, want.ver)
				continue
			}
			if g.Ver < want.ver {
				t.Errorf("failover regressed %s to ver %d, acked ver %d", key, g.Ver, want.ver)
			}
			if g.Ver == want.ver && string(g.Val) != want.val {
				t.Errorf("acked write corrupted: %s = %q v%d, want %q", key, g.Val, g.Ver, want.val)
			}
		}
		checked = true
	})
	rt2.Run()
	if !checked {
		t.Fatal("auditor never finished")
	}
	if kv2.Counters().Replayed == 0 {
		t.Fatal("failover recovery replayed nothing")
	}
}

// TestReplBootstrapSyncShipsCompactedImage: attaching replication to a
// store that already owns state (a recovery boot) must stream a
// complete compacted image — live records at their versions plus
// tombstones (the version floor) — so that a primary loss after
// catch-up loses nothing, including pre-replication state.
func TestReplBootstrapSyncShipsCompactedImage(t *testing.T) {
	const seed = 47
	p := Params{Shards: 2, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 64}

	// Life 1: a local-only store accumulates state (overwrites and a
	// delete, so the image must carry versions and tombstones).
	w1 := newSW(8, p, seed, nil)
	w1.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 30; i++ {
			w1.kv.Put(th, fmt.Sprintf("b%02d", i), []byte(fmt.Sprintf("v%d", i)))
		}
		w1.kv.Put(th, "b00", []byte("v0b"))
		w1.kv.Delete(th, "b01")
	})
	w1.rt.Run()
	var datas []map[int][]byte
	for _, d := range w1.kv.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	w1.rt.Shutdown()

	// Life 2: recovery boot WITH replication to a fresh machine; the
	// bootstrap sweep must run and the replica must acknowledge the
	// complete image.
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: seed + 1})
	k := kernel.New(rt, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt, pFilled(p), data))
	}
	kv := New(rt, k, p, disks)
	rm := NewReplicaMachine(eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 2, Store: p, Wire: quietWire(seed),
	}, nil)
	kv.AttachReplica(rm)
	caught := false
	for step := 0; step < 2000; step++ {
		rt.RunFor(50_000)
		if kv.ReplCaughtUp() {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("replica never caught up with the bootstrap image")
	}
	if kv.Counters().ReplSyncs == 0 || kv.Counters().ReplSyncRecords == 0 {
		t.Fatalf("no bootstrap sweep ran: syncs=%d records=%d", kv.Counters().ReplSyncs, kv.Counters().ReplSyncRecords)
	}

	// Kill the primary; fail over to the replica's platters.
	var rdatas []map[int][]byte
	for _, d := range rm.KV.Disks() {
		rdatas = append(rdatas, d.SnapshotData())
	}
	rt.Shutdown()
	rm.Shutdown()

	eng3 := sim.NewEngine()
	m3 := machine.New(eng3, machine.DefaultParams(8))
	rt3 := core.NewRuntime(m3, core.Config{Seed: seed + 3})
	defer rt3.Shutdown()
	k3 := kernel.New(rt3, kernel.Config{})
	var disks3 []*blockdev.Disk
	for _, data := range rdatas {
		disks3 = append(disks3, blockdev.NewDiskFrom(rt3, pFilled(p), data))
	}
	kv3 := New(rt3, k3, p, disks3)
	checked := false
	rt3.Boot("auditor", func(th *core.Thread) {
		if g := kv3.Get(th, "b00"); !g.Found || string(g.Val) != "v0b" || g.Ver != 2 {
			t.Errorf("failover b00 = %+v, want v0b ver 2", g)
		}
		if g := kv3.Get(th, "b01"); g.Found {
			t.Errorf("tombstone lost in bootstrap image: %+v", g)
		}
		for i := 2; i < 30; i++ {
			key := fmt.Sprintf("b%02d", i)
			if g := kv3.Get(th, key); !g.Found || g.Ver != 1 {
				t.Errorf("failover %s = %+v", key, g)
			}
		}
		// The version floor must have crossed machines: re-creating the
		// deleted key continues its sequence (put 1, delete 2 → put 3).
		if r := kv3.Put(th, "b01", []byte("again")); !r.OK || r.Ver != 3 {
			t.Errorf("re-create after failover: %+v, want ver 3", r)
		}
		checked = true
	})
	rt3.Run()
	if !checked {
		t.Fatal("auditor never finished")
	}
}

// TestCompactionPausesBootstrapSync: a bootstrap sweep walking a big
// cold index (parked on disk reads) must not starve compaction — if it
// did, churn during the sync would exhaust the region and refuse client
// writes, regressing the zero-LogFull contract. Compaction runs; the
// sweep pauses under it and resumes where it left off at the epoch
// commit (never restarting, so sustained churn cannot discard its
// progress), and the image still completes.
func TestCompactionPausesBootstrapSync(t *testing.T) {
	const seed = 67
	p := Params{Shards: 1, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 16,
		CompactBatch: 8, CompactStepCycles: 4_000}
	val := make([]byte, 600) // ~6 records per 4 KB block

	// Life 1: fill to just under the high-water mark (cold blocks well
	// past the tiny cache, so the life-2 sync must park on reads).
	w1 := newSW(8, p, seed, nil)
	w1.rt.Boot("fill", func(th *core.Thread) {
		for i := 0; i < 60; i++ {
			if r := w1.kv.Put(th, fmt.Sprintf("p%02d", i%32), val); !r.OK {
				t.Errorf("fill put %d: %+v", i, r)
			}
		}
	})
	w1.rt.Run()
	data := w1.kv.Disks()[0].SnapshotData()
	w1.rt.Shutdown()

	// Life 2: recovery boot with replication; churn crosses the
	// high-water mark while the bootstrap sweep is still parked on its
	// cold reads.
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: seed + 1})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, []*blockdev.Disk{blockdev.NewDiskFrom(rt, pFilled(p), data)})
	rm := NewReplicaMachine(eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 2, Store: p, Wire: quietWire(seed),
	}, nil)
	defer rm.Shutdown()
	kv.AttachReplica(rm)
	churnDone := false
	rt.Boot("churn", func(th *core.Thread) {
		// A pipelined burst: the appends land while the bootstrap sweep
		// is still in flight, crossing the high-water mark under it.
		var acks []*core.Chan
		for i := 0; i < 60; i++ {
			acks = append(acks, kv.PutAsync(th, fmt.Sprintf("p%02d", i%32), val))
		}
		for i, a := range acks {
			v, _ := a.Recv(th)
			if r, ok := v.(*WriteResult); !ok || !r.OK {
				t.Errorf("churn put %d refused: %+v", i, v)
				return
			}
		}
		churnDone = true
	})
	caught := false
	for step := 0; step < 4000; step++ {
		rt.RunFor(50_000)
		if churnDone && kv.ReplCaughtUp() {
			caught = true
			break
		}
	}
	if !churnDone {
		t.Fatal("churn writes never completed")
	}
	if kv.Counters().LogFull != 0 {
		t.Fatalf("writes refused during bootstrap sync: LogFull = %d", kv.Counters().LogFull)
	}
	if kv.Counters().CompactionsStarted == 0 {
		t.Fatal("churn never triggered a compaction — the pause path was not exercised")
	}
	if kv.Counters().ReplSyncs != 1 {
		t.Fatalf("the paused sync restarted instead of resuming: ReplSyncs = %d", kv.Counters().ReplSyncs)
	}
	if !caught {
		t.Fatal("paused sync never completed the bootstrap image")
	}
}

// TestFailStopDrainsBlockedClients pins the no-hang contract (the PR's
// second bugfix): clients blocked on deferred acks at the moment the
// shard fail-stops — both a write still waiting for its quorum (local
// flush done, replica ack outstanding) and the write riding the failing
// flush itself — must all receive error replies, never hang.
func TestFailStopDrainsBlockedClients(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	// A slow wire: replica acks take ~5 ms round trip, so locally
	// durable writes demonstrably park in replWait.
	wp := quietWire(51)
	wp.DelayCycles = 5_000_000
	w := newRW(8, p, 51, wp, nil)
	defer w.shutdown()

	var first WriteResult
	firstDone := false
	w.rt.Boot("writer.quorum", func(th *core.Thread) {
		first = w.kv.Put(th, "parked", []byte("v"))
		firstDone = true
	})
	// Step until the first write is locally durable (its flush interrupt
	// processed) — it is now parked in replWait awaiting the replica.
	for step := 0; step < 1000 && w.kv.Counters().FlushesDone == 0; step++ {
		w.rt.RunFor(10_000)
	}
	if w.kv.Counters().FlushesDone == 0 {
		t.Fatal("first write never became locally durable")
	}
	if firstDone {
		t.Fatal("quorum ack released without a replica ack")
	}

	// Now the disk dies under the next flush.
	w.kv.Disks()[0].InjectWriteFailures(1)
	var second WriteResult
	secondDone := false
	w.rt.Boot("writer.failing", func(th *core.Thread) {
		second = w.kv.Put(th, "failing", []byte("v"))
		secondDone = true
	})
	for step := 0; step < 2000 && !(firstDone && secondDone); step++ {
		w.rt.RunFor(10_000)
	}
	if !firstDone {
		t.Fatal("client parked on quorum hung across fail-stop")
	}
	if !secondDone {
		t.Fatal("client riding the failed flush hung across fail-stop")
	}
	if first.OK || first.Err == "" {
		t.Errorf("quorum-parked write must be nacked on fail-stop: %+v", first)
	}
	if second.OK || second.Err == "" {
		t.Errorf("write riding the failed flush must be nacked: %+v", second)
	}
	if w.kv.Counters().FailedShards != 1 {
		t.Fatalf("FailedShards = %d, want 1", w.kv.Counters().FailedShards)
	}
}

// TestReplicaFailureFailStopsPrimary: the replica shard dying (its own
// disk write fails) must surface as an error on the primary — the
// quorum is unreachable, and pretending otherwise would ack writes a
// failover could lose.
func TestReplicaFailureFailStopsPrimary(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newRW(8, p, 53, quietWire(53), nil)
	defer w.shutdown()
	w.rm.KV.Disks()[0].InjectWriteFailures(1)
	var r WriteResult
	done := false
	w.rt.Boot("writer", func(th *core.Thread) {
		r = w.kv.Put(th, "k", []byte("v"))
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("writer hung: replica failure never reached the primary")
	}
	if r.OK || r.Err == "" {
		t.Errorf("write acked without a live quorum: %+v", r)
	}
	if w.rm.KV.Counters().FailedShards != 1 {
		t.Fatalf("replica FailedShards = %d, want 1", w.rm.KV.Counters().FailedShards)
	}
	if w.kv.Counters().FailedShards != 1 {
		t.Fatalf("primary FailedShards = %d, want 1", w.kv.Counters().FailedShards)
	}
}

// TestScanFailStoppedShardReturnsErrorNotPartial is the regression test
// for the partial-scan bug: Scan used to return the surviving shards'
// keys alongside a non-empty Err, so callers treating Keys as a
// complete merge silently lost the failed shard's keyspace.
func TestScanFailStoppedShardReturnsErrorNotPartial(t *testing.T) {
	p := smallParams()
	p.Shards = 2
	w := newSW(8, p, 57, nil)
	defer w.rt.Shutdown()
	checked := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 8; i++ {
			if r := w.kv.Put(th, fmt.Sprintf("s%02d", i), []byte("v")); !r.OK {
				t.Errorf("setup put %d: %+v", i, r)
			}
		}
		// Fail-stop exactly one shard: find a key it owns and fail the
		// write under it.
		victim := 0
		var key string
		for i := 0; ; i++ {
			key = fmt.Sprintf("kill%d", i)
			if keyHash(key)%2 == victim {
				break
			}
		}
		w.kv.Disks()[victim].InjectWriteFailures(1)
		if r := w.kv.Put(th, key, []byte("boom")); r.OK {
			t.Errorf("write on dying shard acked: %+v", r)
		}
		sc := w.kv.Scan(th, "s", 0)
		if sc.Err == "" {
			t.Errorf("scan with a fail-stopped shard reported no error: %+v", sc)
		}
		if len(sc.Keys) != 0 || len(sc.Vers) != 0 {
			t.Errorf("scan returned a partial merge alongside its error: %v", sc.Keys)
		}
		checked = true
	})
	w.rt.Run()
	if !checked {
		t.Fatal("app thread never finished")
	}
	if w.kv.Counters().FailedShards != 1 {
		t.Fatalf("FailedShards = %d, want 1", w.kv.Counters().FailedShards)
	}
}

// replDigest runs a seeded quorum-replicated workload and returns its
// countable outcome, for the determinism check.
func replDigest(seed uint64) [6]uint64 {
	p := smallParams()
	w := newRW(8, p, seed, quietWire(seed), nil)
	defer w.shutdown()
	rng := sim.NewRNG(seed)
	for i := 0; i < 3; i++ {
		i := i
		w.rt.Boot(fmt.Sprintf("app.%d", i), func(th *core.Thread) {
			for j := 0; j < 20; j++ {
				k := fmt.Sprintf("k%d", rng.Uint64n(12))
				if rng.Bool(0.3) {
					w.kv.Get(th, k)
				} else {
					w.kv.Put(th, k, []byte{byte(j)})
				}
			}
		})
	}
	w.rt.RunFor(40_000_000)
	return [6]uint64{w.kv.Counters().Puts, w.kv.Counters().AckedWrites, w.kv.Counters().ReplBatches, w.kv.Counters().ReplAcks,
		w.rm.KV.Counters().ReplApplied, w.eng.Fired()}
}

// TestReplicationDeterministicReplay: the whole two-machine topology —
// group commits, the inter-machine wire, replica flushes, quorum
// releases — replays exactly from a seed.
func TestReplicationDeterministicReplay(t *testing.T) {
	a := replDigest(61)
	b := replDigest(61)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a[1] == 0 || a[4] == 0 {
		t.Fatalf("workload replicated nothing: %v", a)
	}
}

// TestPooledReplRecordsSurviveRetransmission: batches and acks cross
// the replication wire as pooled records that their one consumer hands
// back at once, while the sender's transport may still hold them to
// retransmit. On a lossy wire, retransmitted copies arrive after their
// records were reused for later batches and acks, and the receiving
// flow must drop each unread. So the replica ends with the primary's
// version of every acked key, and every ack the primary lands names a
// sequence it shipped.
func TestPooledReplRecordsSurviveRetransmission(t *testing.T) {
	const seed = 71
	wp := quietWire(seed)
	wp.LossProb = 0.15
	w := newRW(8, smallParams(), seed, wp, nil)
	defer w.shutdown()
	var stray []string
	for i, sh := range w.kv.shards {
		shipped := map[uint64]bool{}
		sh.m.flight.Hook = func(ev telemetry.FlightEvent) {
			switch ev.Kind {
			case "repl-ship":
				shipped[ev.A] = true
			case "repl-ack":
				if !shipped[ev.A] {
					stray = append(stray, fmt.Sprintf("shard %d seq %d", i, ev.A))
				}
			}
		}
	}
	const writers, puts = 3, 40
	acked := map[string]uint64{}
	var keys []string
	finished := 0
	for i := 0; i < writers; i++ {
		w.rt.Boot(fmt.Sprintf("app.%d", i), func(th *core.Thread) {
			for j := 0; j < puts; j++ {
				key := fmt.Sprintf("w%d/k%d", i, j%8)
				r := w.kv.Put(th, key, []byte(fmt.Sprintf("v%d.%d", i, j)))
				if !r.OK {
					t.Errorf("put %s: %s", key, r.Err)
					return
				}
				if _, ok := acked[key]; !ok {
					keys = append(keys, key)
				}
				acked[key] = r.Ver
			}
			finished++
		})
	}
	w.rt.Run()
	if finished != writers {
		t.Fatalf("%d of %d writers finished (a quorum ack never arrived)", finished, writers)
	}
	if w.rm.NW.Retransmits == 0 || w.rm.Stk.Counters().Retransmits == 0 {
		t.Fatalf("retransmits: batches %d, acks %d; want both > 0, or the reuse hazard is not exercised",
			w.rm.NW.Retransmits, w.rm.Stk.Counters().Retransmits)
	}
	if len(stray) > 0 {
		t.Fatalf("the primary landed %d acks for sequences it never shipped, first %s", len(stray), stray[0])
	}
	primary := map[string]uint64{}
	w.rt.Boot("audit.primary", func(th *core.Thread) {
		for _, key := range keys {
			primary[key] = w.kv.Get(th, key).Ver
		}
	})
	w.rt.Run()
	audited := 0
	w.rm.RT.Boot("audit.replica", func(th *core.Thread) {
		for _, key := range keys {
			if g := w.rm.KV.Get(th, key); g.Ver != primary[key] || primary[key] != acked[key] {
				t.Errorf("%s: replica ver %d, primary %d, acked %d", key, g.Ver, primary[key], acked[key])
			}
			audited++
		}
	})
	w.rm.RT.Run()
	if audited != len(keys) || len(keys) != writers*8 {
		t.Fatalf("audited %d of %d keys, want %d", audited, len(keys), writers*8)
	}
}
