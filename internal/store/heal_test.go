package store

import (
	"fmt"
	"testing"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

// hw is a single-machine world whose store may be recovered from
// carried-over platters — the failed-over half of the heal tests.
type hw struct {
	eng *sim.Engine
	m   *machine.Machine
	rt  *core.Runtime
	k   *kernel.Kernel
	kv  *Store
}

// bootHW builds a machine and a store; datas != nil recovers the store
// from those platter snapshots (one per shard, in shard order).
func bootHW(cores int, p Params, seed uint64, datas []map[int][]byte) *hw {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt, pFilled(p), data))
	}
	kv := New(rt, k, p, disks)
	return &hw{eng: eng, m: m, rt: rt, k: k, kv: kv}
}

// snapDisks snapshots every shard platter of a store.
func snapDisks(kv *Store) []map[int][]byte {
	var datas []map[int][]byte
	for _, d := range kv.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	return datas
}

// TestAttachReplicaHealsLiveStore is the tentpole's closed loop: a
// failed-over store — booted from carried-over platters, serving solo
// under degraded durability — attaches a FRESH replica machine while it
// is live and taking writes, streams its bootstrap image, and returns
// to full two-machine quorum (SOLO-equivalent → SYNCING → QUORUM).
// Killing the healed primary must then lose nothing ever acknowledged:
// not the pre-attach state, not the writes acked mid-sync, not the
// quorum-acked ones.
func TestAttachReplicaHealsLiveStore(t *testing.T) {
	const seed = 71
	p := Params{Shards: 2, CacheBlocks: 4, FlushCycles: 20_000, LogBlocks: 64}

	type ack struct {
		ver uint64
		val string
	}
	acked := map[string]ack{}
	record := func(key, val string, r WriteResult) {
		if !r.OK {
			return
		}
		if old, ok := acked[key]; !ok || r.Ver > old.ver {
			acked[key] = ack{ver: r.Ver, val: val}
		}
	}

	// Life 1: a solo store accumulates state.
	w1 := bootHW(8, p, seed, nil)
	w1.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 40; i++ {
			key, val := fmt.Sprintf("h%02d", i), fmt.Sprintf("v%d", i)
			record(key, val, w1.kv.Put(th, key, []byte(val)))
		}
		record("h00", "v0b", w1.kv.Put(th, "h00", []byte("v0b")))
	})
	w1.rt.Run()
	datas := snapDisks(w1.kv)
	w1.rt.Shutdown()
	if len(acked) == 0 {
		t.Fatal("life 1 acked nothing")
	}

	// Life 2: a failed-over boot, live and serving, heals at runtime.
	w2 := bootHW(8, p, seed+1, datas)
	if got := w2.kv.Lifecycle(); got != LifecycleFailedOver {
		t.Fatalf("recovered solo store Lifecycle = %q, want %q", got, LifecycleFailedOver)
	}
	var ackedCount uint64
	rng := sim.NewRNG(seed)
	for wtr := 0; wtr < 2; wtr++ {
		wtr := wtr
		w2.rt.Boot(fmt.Sprintf("writer.%d", wtr), func(th *core.Thread) {
			for round := 0; ; round++ {
				key := fmt.Sprintf("h%02d", rng.Uint64n(40))
				val := fmt.Sprintf("%s@w%d.%d", key, wtr, round)
				r := w2.kv.Put(th, key, []byte(val))
				if !r.OK {
					return
				}
				record(key, val, r)
				ackedCount++
			}
		})
	}
	// The store serves solo for a while — these acks are local-flush.
	for step := 0; step < 200 && ackedCount < 10; step++ {
		w2.rt.RunFor(10_000)
	}
	if ackedCount < 10 {
		t.Fatal("failed-over store never served writes")
	}

	// Runtime attach: a fresh replica machine joins the live store.
	rm := NewReplicaMachine(w2.eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 2, Store: p, Wire: quietWire(seed),
	}, nil)
	w2.kv.AttachReplica(rm)
	sawSyncing := false
	healed := false
	for step := 0; step < 4000; step++ {
		w2.rt.RunFor(10_000)
		switch w2.kv.Lifecycle() {
		case LifecycleSyncing:
			sawSyncing = true
		case LifecycleQuorum:
			healed = true
		}
		if healed {
			break
		}
	}
	if !sawSyncing {
		t.Error("lifecycle never reported syncing during the bootstrap sweep")
	}
	if !healed {
		t.Fatal("runtime attach never reached quorum")
	}
	if !w2.kv.ReplCaughtUp() {
		t.Fatal("Lifecycle says quorum but ReplCaughtUp disagrees")
	}
	if w2.kv.Counters().ReplSyncs == 0 || w2.kv.Counters().ReplSyncRecords == 0 {
		t.Fatalf("no bootstrap sweep ran: syncs=%d records=%d", w2.kv.Counters().ReplSyncs, w2.kv.Counters().ReplSyncRecords)
	}
	if w2.kv.Counters().ReplHeals != uint64(p.Shards) {
		t.Fatalf("ReplHeals = %d, want %d (every shard heals once)", w2.kv.Counters().ReplHeals, p.Shards)
	}

	// More writes under the healed quorum, then the primary dies.
	before := ackedCount
	for step := 0; step < 2000 && ackedCount < before+20; step++ {
		w2.rt.RunFor(10_000)
	}
	if ackedCount < before+20 {
		t.Fatal("healed store stopped serving writes")
	}
	rdatas := snapDisks(rm.KV)
	w2.rt.Shutdown()
	rm.Shutdown()

	// Failover: only the (runtime-attached) replica's platters survive.
	w3 := bootHW(8, p, seed+3, rdatas)
	defer w3.rt.Shutdown()
	checked := false
	w3.rt.Boot("auditor", func(th *core.Thread) {
		for key, want := range acked {
			g := w3.kv.Get(th, key)
			if !g.Found {
				t.Errorf("acked write lost across heal+failover: %s=%q (ver %d)", key, want.val, want.ver)
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
	w3.rt.Run()
	if !checked {
		t.Fatal("auditor never finished")
	}
}

// TestReplicaLossDuringSyncDetaches pins the lifecycle's asymmetric
// replica-loss rule: before the attachment reaches quorum, no client
// has been promised two-machine durability, so losing the replica
// mid-bootstrap must DETACH (back to degraded solo service) — not
// fail-stop, which would turn a failed heal into an outage. A second,
// healthy attach must then complete the heal.
func TestReplicaLossDuringSyncDetaches(t *testing.T) {
	const seed = 73
	p := Params{Shards: 1, CacheBlocks: 4, FlushCycles: 20_000, LogBlocks: 64}

	w1 := bootHW(8, p, seed, nil)
	w1.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 20; i++ {
			w1.kv.Put(th, fmt.Sprintf("d%02d", i), []byte("v"))
		}
	})
	w1.rt.Run()
	datas := snapDisks(w1.kv)
	w1.rt.Shutdown()

	w2 := bootHW(8, p, seed+1, datas)
	defer w2.rt.Shutdown()

	// The first replica's disk dies under the first bootstrap batch.
	rm1 := NewReplicaMachine(w2.eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 2, Store: p, Wire: quietWire(seed),
	}, nil)
	defer rm1.Shutdown()
	rm1.KV.Disks()[0].InjectWriteFailures(1)
	w2.kv.AttachReplica(rm1)
	for step := 0; step < 2000 && w2.kv.Counters().ReplDetached == 0; step++ {
		w2.rt.RunFor(10_000)
	}
	if w2.kv.Counters().ReplDetached != 1 {
		t.Fatalf("ReplDetached = %d, want 1", w2.kv.Counters().ReplDetached)
	}
	if w2.kv.Counters().FailedShards != 0 {
		t.Fatalf("primary fail-stopped on a pre-quorum replica loss: FailedShards = %d", w2.kv.Counters().FailedShards)
	}
	if got := w2.kv.Lifecycle(); got != LifecycleFailedOver {
		t.Fatalf("detached store Lifecycle = %q, want %q", got, LifecycleFailedOver)
	}
	if len(w2.kv.replicas) != 0 {
		t.Fatal("a replica is still attached after every shard detached")
	}
	// Still serving, still degraded.
	served := false
	w2.rt.Boot("probe", func(th *core.Thread) {
		if r := w2.kv.Put(th, "after-detach", []byte("v")); !r.OK {
			t.Errorf("write refused after detach: %+v", r)
		}
		served = true
	})
	for step := 0; step < 400 && !served; step++ {
		w2.rt.RunFor(10_000)
	}
	if !served {
		t.Fatal("detached store stopped serving writes")
	}

	// A healthy second attach heals.
	rm2 := NewReplicaMachine(w2.eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 3, Port: 6382, Store: p, Wire: quietWire(seed + 1),
	}, nil)
	defer rm2.Shutdown()
	w2.kv.AttachReplica(rm2)
	for step := 0; step < 4000 && !w2.kv.ReplCaughtUp(); step++ {
		w2.rt.RunFor(10_000)
	}
	if !w2.kv.ReplCaughtUp() {
		t.Fatal("second attach never healed the quorum")
	}
	if got := w2.kv.Lifecycle(); got != LifecycleQuorum {
		t.Fatalf("healed store Lifecycle = %q, want %q", got, LifecycleQuorum)
	}
	// The host polls the per-replica rows every drive slice, so they
	// reuse one buffer per store.
	rows := w2.kv.LifecycleReport()
	if len(rows) != 1 || rows[0].Port != 6382 || rows[0].State != LifecycleQuorum {
		t.Fatalf("replica rows %+v, want one: the new attachment, at quorum", rows)
	}
	if n := testing.AllocsPerRun(10, func() { w2.kv.LifecycleReport() }); n != 0 {
		t.Fatalf("LifecycleReport allocates %.0f, want 0", n)
	}
}

// TestHealRearmsFailStop: after a heal completes, the quorum contract
// is fully armed again — losing the NEW replica fail-stops the primary
// exactly as PR 4's from-birth quorum does.
func TestHealRearmsFailStop(t *testing.T) {
	const seed = 79
	p := Params{Shards: 1, CacheBlocks: 4, FlushCycles: 20_000, LogBlocks: 64}

	w1 := bootHW(8, p, seed, nil)
	w1.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 10; i++ {
			w1.kv.Put(th, fmt.Sprintf("r%02d", i), []byte("v"))
		}
	})
	w1.rt.Run()
	datas := snapDisks(w1.kv)
	w1.rt.Shutdown()

	w2 := bootHW(8, p, seed+1, datas)
	defer w2.rt.Shutdown()
	rm := NewReplicaMachine(w2.eng, ReplicaMachineParams{
		Cores: 8, Seed: seed + 2, Store: p, Wire: quietWire(seed),
	}, nil)
	defer rm.Shutdown()
	w2.kv.AttachReplica(rm)
	for step := 0; step < 4000 && !w2.kv.ReplCaughtUp(); step++ {
		w2.rt.RunFor(10_000)
	}
	if !w2.kv.ReplCaughtUp() {
		t.Fatal("attach never healed")
	}

	// The healed replica dies: the re-armed rule condemns the shard.
	rm.KV.Disks()[0].InjectWriteFailures(1)
	var r WriteResult
	done := false
	w2.rt.Boot("writer", func(th *core.Thread) {
		r = w2.kv.Put(th, "post-heal", []byte("v"))
		done = true
	})
	for step := 0; step < 4000 && !done; step++ {
		w2.rt.RunFor(10_000)
	}
	if !done {
		t.Fatal("writer hung: replica failure never reached the healed primary")
	}
	if r.OK || r.Err == "" {
		t.Errorf("write acked without a live quorum after heal: %+v", r)
	}
	if w2.kv.Counters().FailedShards != 1 {
		t.Fatalf("primary FailedShards = %d, want 1 (fail-stop must re-arm after heal)", w2.kv.Counters().FailedShards)
	}
}

// TestReplicaReadLagAndDurabilityGates pins the two replica-read gates
// deterministically: a burst of captured-but-unflushed writes, told to
// the replica by a tail advertisement, must push the advertised lag
// past the bound and REJECT reads (never silently serve stale); once
// the records land and apply, a read arriving before the replica's own
// group commit parks on the durable horizon and is served after the
// flush — never before.
func TestReplicaReadLagAndDurabilityGates(t *testing.T) {
	const seed = 83
	p := Params{Shards: 1, CacheBlocks: 4, LogBlocks: 64,
		FlushCycles: 5_000_000, ReplAdvertiseCycles: 50_000, ReplicaLagBound: 4}
	w := newRW(8, p, seed, quietWire(seed), nil)
	defer w.shutdown()

	// A pipelined burst: 32 records captured, none flushed for 2.5 ms.
	w.rt.Boot("burst", func(th *core.Thread) {
		for i := 0; i < 32; i++ {
			w.kv.PutAsync(th, fmt.Sprintf("lag%02d", i), []byte("v"))
		}
	})
	w.rt.RunFor(600_000) // advert (25 µs) + wire, well before the flush

	if w.kv.Counters().ReplAdverts == 0 {
		t.Fatal("no tail advertisement shipped ahead of the flush")
	}
	lagged := false
	w.rm.RT.Boot("reader.lag", func(th *core.Thread) {
		g := w.rm.KV.GetReplica(th, "lag00")
		if g.Err != ErrReplicaLag {
			t.Errorf("read during a 32-record lag (bound 4) = %+v, want ErrReplicaLag", g)
		}
		lagged = true
	})
	w.rt.RunFor(400_000)
	if !lagged {
		t.Fatal("lag reader never ran")
	}
	if w.rm.KV.Counters().RefusedLag == 0 {
		t.Fatal("RefusedLag not counted")
	}

	// Let the primary flush and the batch apply — but read before the
	// replica's own group commit completes: the read must park.
	w.rt.RunFor(4_300_000) // past the primary flush at 5 ms + wire
	var got GetResult
	served := false
	w.rm.RT.Boot("reader.durable", func(th *core.Thread) {
		got = w.rm.KV.GetReplica(th, "lag00")
		served = true
	})
	w.rt.RunFor(200_000)
	if served {
		t.Fatal("replica read served before the records were replica-durable")
	}
	w.rt.RunFor(6_000_000) // replica group commit lands; parked read drains
	if !served {
		t.Fatal("parked replica read never drained after the flush")
	}
	if !got.Found || string(got.Val) != "v" || got.Ver != 1 {
		t.Errorf("drained replica read = %+v, want v ver 1", got)
	}
	if w.rm.KV.Counters().ReplicaWaits == 0 {
		t.Fatal("ReplicaWaits not counted: the durability park never happened")
	}
}

// TestLifecycleFold pins the store-level lifecycle state over mixed
// per-shard states. Each shard is written as a string: "-" a shard not
// yet built, "x" fail-stopped, otherwise one letter per attachment, "q"
// armed and "s" still syncing ("" is a shard with no attachment).
func TestLifecycleFold(t *testing.T) {
	for _, row := range []struct {
		shards    []string
		recovered bool
		want      string
	}{
		{[]string{"", ""}, false, LifecycleSolo},
		{[]string{"", ""}, true, LifecycleFailedOver},
		{[]string{"-", ""}, false, LifecycleSolo},
		{[]string{"-", "-"}, true, LifecycleFailedOver},
		{[]string{"q", "q"}, false, LifecycleQuorum},
		{[]string{"qq", "q"}, true, LifecycleQuorum},
		{[]string{"q", "s"}, false, LifecycleSyncing},
		{[]string{"q", "qs"}, false, LifecycleSyncing},
		{[]string{"s", "s"}, true, LifecycleSyncing},
		{[]string{"q", ""}, false, LifecycleSyncing},
		{[]string{"q", "-"}, false, LifecycleSyncing},
		{[]string{"-", "s"}, true, LifecycleSyncing},
		{[]string{"x", "q"}, false, LifecycleFailed},
		{[]string{"-", "x"}, false, LifecycleFailed},
		{[]string{"", "x"}, true, LifecycleFailed},
	} {
		s := &Store{recovered: row.recovered}
		for _, c := range row.shards {
			if c == "-" {
				s.shards = append(s.shards, nil)
				continue
			}
			sh := &shard{s: s}
			if c == "x" {
				sh.failed = "store: shard fail-stop"
			} else {
				for _, a := range c {
					sh.repls = append(sh.repls, &replShard{synced: a == 'q', quorum: a == 'q'})
				}
			}
			s.shards = append(s.shards, sh)
		}
		if got := s.Lifecycle(); got != row.want {
			t.Errorf("shards %q recovered=%v: Lifecycle() = %q, want %q", row.shards, row.recovered, got, row.want)
		}
	}
}
