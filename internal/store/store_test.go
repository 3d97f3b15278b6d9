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
)

// sw is one store test world.
type sw struct {
	eng *sim.Engine
	m   *machine.Machine
	rt  *core.Runtime
	k   *kernel.Kernel
	kv  *Store
}

func newSW(cores int, p Params, seed uint64, disks []*blockdev.Disk) *sw {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, disks)
	return &sw{eng: eng, m: m, rt: rt, k: k, kv: kv}
}

// smallParams keeps test logs and caches tiny so every path (seal,
// eviction, miss) is exercised with little data.
func smallParams() Params {
	return Params{Shards: 2, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 64}
}

func TestPutGetDeleteVersions(t *testing.T) {
	w := newSW(8, smallParams(), 3, nil)
	defer w.rt.Shutdown()
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 3; i++ {
			r := w.kv.Put(th, fmt.Sprintf("user/%d", i), []byte(fmt.Sprintf("v%d", i)))
			if !r.OK || r.Ver != 1 {
				t.Errorf("put %d: %+v", i, r)
			}
		}
		// Overwrite bumps the version.
		if r := w.kv.Put(th, "user/1", []byte("v1b")); !r.OK || r.Ver != 2 {
			t.Errorf("overwrite: %+v", r)
		}
		for i, want := range []string{"v0", "v1b", "v2"} {
			g := w.kv.Get(th, fmt.Sprintf("user/%d", i))
			if !g.Found || string(g.Val) != want {
				t.Errorf("get %d = %+v, want %q", i, g, want)
			}
		}
		if g := w.kv.Get(th, "user/1"); g.Ver != 2 {
			t.Errorf("get version = %d, want 2", g.Ver)
		}
		if r := w.kv.Delete(th, "user/0"); !r.OK || !r.Found {
			t.Errorf("delete: %+v", r)
		}
		if g := w.kv.Get(th, "user/0"); g.Found {
			t.Errorf("deleted key still found: %+v", g)
		}
		if r := w.kv.Delete(th, "user/0"); r.Found {
			t.Errorf("double delete found something: %+v", r)
		}
		// Re-creating a deleted key must continue its version sequence
		// (put v1, delete v2 → put v3), never reuse an old version: a
		// client holding (key, ver) must not see two values under one ver.
		if r := w.kv.Put(th, "user/0", []byte("v0b")); !r.OK || r.Ver != 3 || r.Found {
			t.Errorf("re-create after delete: %+v, want ver 3, found=false", r)
		}
		for i, want := range []uint64{3, 2, 1} {
			if g := w.kv.Get(th, fmt.Sprintf("user/%d", i)); !g.Found || g.Ver != want {
				t.Errorf("get user/%d = %+v, want version %d", i, g, want)
			}
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished (a write ack never arrived)")
	}
	if w.kv.Counters().AckedWrites == 0 || w.kv.Counters().FlushesDone == 0 {
		t.Fatalf("no durability traffic: acked=%d flushes=%d", w.kv.Counters().AckedWrites, w.kv.Counters().FlushesDone)
	}
}

// TestCacheMissGoesToDiskThenHits fills several log blocks past the
// cache capacity, then reads a cold key: first a miss (served by a disk
// read that re-enters the shard as a message), then a hit.
func TestCacheMissGoesToDiskThenHits(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 5, nil)
	defer w.rt.Shutdown()
	val := make([]byte, 600) // ~6 records per 4 KB block
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 40; i++ {
			if r := w.kv.Put(th, fmt.Sprintf("k%02d", i), val); !r.OK {
				t.Errorf("put %d failed: %+v", i, r)
			}
		}
		missesBefore := w.kv.Counters().CacheMisses
		if g := w.kv.Get(th, "k00"); !g.Found || len(g.Val) != len(val) {
			t.Errorf("cold get: %+v", g)
		}
		if w.kv.Counters().CacheMisses == missesBefore {
			t.Error("cold key should have missed the cache")
		}
		hitsBefore := w.kv.Counters().CacheHits
		if g := w.kv.Get(th, "k00"); !g.Found {
			t.Errorf("warm get: %+v", g)
		}
		if w.kv.Counters().CacheHits == hitsBefore {
			t.Error("re-read should have hit the cache")
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}
	if w.kv.Disks()[0].Reads == 0 {
		t.Fatal("cache miss never reached the disk")
	}
}

// TestWireKVOverNetstack drives the full vertical slice: endpoint on
// the wire → NIC RSS → netstack shard → per-connection server thread →
// store shard → log device, and back. A request whose op is outside the
// defined set (the zero op, and one past the last) is answered with an
// error, and the connection goes on serving.
func TestWireKVOverNetstack(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(16))
	rt := core.NewRuntime(m, core.Config{Seed: 7})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	nic := machine.NewNIC(m, machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = 7
	nw := net.NewNetwork(eng, nic, wp)
	st := net.NewStack(rt, k, nic, net.StackParams{})
	kv := New(rt, k, Params{Shards: 2, FlushCycles: 20_000, LogBlocks: 64}, nil)

	l := st.Listen(6379)
	rt.Boot("accept", func(at *core.Thread) {
		for {
			c, ok := l.Accept(at)
			if !ok {
				return
			}
			at.Spawn(fmt.Sprintf("kv.%d", c.ID()), func(ht *core.Thread) {
				ServeConn(ht, c, kv)
			})
		}
	})

	reqs := []KVRequest{
		{Op: WPut, Seq: 1, Key: "a", Val: []byte("alpha")},
		{Op: WPut, Seq: 2, Key: "b", Val: []byte("beta")},
		{Op: WGet, Seq: 3, Key: "a"},
		{Op: WDelete, Seq: 4, Key: "b"},
		{Op: WGet, Seq: 5, Key: "b"},
		{Op: 0, Seq: 6, Key: "a"},
		{Op: WMapSet + 1, Seq: 7, Key: "a"},
		{Op: WGet, Seq: 8, Key: "a"},
	}
	var got []KVResponse
	next := 0
	var send func(ep *net.Endpoint)
	send = func(ep *net.Endpoint) {
		ep.Send(reqs[next], reqs[next].WireBytes())
		next++
	}
	nw.Dial(6379, net.EndpointHooks{
		OnOpen: send,
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			got = append(got, payload.(KVResponse))
			if next < len(reqs) {
				send(ep)
			} else {
				ep.Close()
			}
		},
	})
	rt.Run()

	if len(got) != len(reqs) {
		t.Fatalf("got %d responses, want %d: %+v", len(got), len(reqs), got)
	}
	for i, r := range got {
		if r.Seq != reqs[i].Seq {
			t.Fatalf("response %d has seq %d, want %d", i, r.Seq, reqs[i].Seq)
		}
	}
	if !got[0].OK || got[0].Ver != 1 {
		t.Fatalf("PUT a: %+v", got[0])
	}
	if !got[2].Found || string(got[2].Val) != "alpha" || got[2].Ver != 1 {
		t.Fatalf("GET a: %+v", got[2])
	}
	if !got[3].OK || !got[3].Found {
		t.Fatalf("DELETE b: %+v", got[3])
	}
	if got[4].Found {
		t.Fatalf("GET deleted b: %+v", got[4])
	}
	for _, r := range got[5:7] {
		if r.OK || r.Err != "store: unknown wire op" {
			t.Fatalf("unknown op: %+v, want Err %q", r, "store: unknown wire op")
		}
	}
	if !got[7].Found || string(got[7].Val) != "alpha" {
		t.Fatalf("GET a after the unknown ops: %+v", got[7])
	}
}

// TestWireDuplicatePutAppliesOnce pins end-to-end idempotence at the
// wire layer: a lossy wire forces retransmissions of KVRequest PUTs
// (data packets whose acks were dropped arrive at the server twice),
// and the netstack's per-connection sequence/reassembly state must shed
// the duplicates so the store applies each PUT exactly once — the key's
// version bumps once per client-issued PUT, never per delivery.
func TestWireDuplicatePutAppliesOnce(t *testing.T) {
	const seed = 97
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(16))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	nic := machine.NewNIC(m, machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = seed
	wp.LossProb = 0.3 // heavy seeded loss: retransmissions are certain
	nw := net.NewNetwork(eng, nic, wp)
	st := net.NewStack(rt, k, nic, net.StackParams{})
	kv := New(rt, k, Params{Shards: 2, FlushCycles: 20_000, LogBlocks: 64}, nil)

	l := st.Listen(6379)
	rt.Boot("accept", func(at *core.Thread) {
		for {
			c, ok := l.Accept(at)
			if !ok {
				return
			}
			at.Spawn(fmt.Sprintf("kv.%d", c.ID()), func(ht *core.Thread) {
				ServeConn(ht, c, kv)
			})
		}
	})

	const puts = 5
	var resps []KVResponse
	sent := 0
	send := func(ep *net.Endpoint) {
		req := KVRequest{Op: WPut, Seq: uint32(sent), Key: "dup", Val: []byte(fmt.Sprintf("v%d", sent))}
		sent++
		ep.Send(req, req.WireBytes())
	}
	nw.Dial(6379, net.EndpointHooks{
		OnOpen: send,
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			resps = append(resps, payload.(KVResponse))
			if sent < puts {
				send(ep)
			} else {
				ep.Close()
			}
		},
		OnFail: func(*net.Endpoint) { t.Error("client gave up on the lossy wire") },
	})
	rt.Run()

	if st.Counters().Retransmits+nw.Retransmits == 0 {
		t.Fatal("no retransmissions happened — the duplicate path was not exercised")
	}
	if len(resps) != puts {
		t.Fatalf("got %d responses, want %d: %+v", len(resps), puts, resps)
	}
	for i, r := range resps {
		if !r.OK || r.Ver != uint64(i+1) {
			t.Fatalf("response %d = %+v, want OK ver %d (a duplicate double-applied?)", i, r, i+1)
		}
	}
	if kv.Counters().Puts != puts {
		t.Fatalf("store saw %d PUTs for %d client PUTs: duplicates crossed the netstack", kv.Counters().Puts, puts)
	}
	// End-to-end: the key's version advanced exactly once per PUT.
	done := false
	rt.Boot("check", func(th *core.Thread) {
		if g := kv.Get(th, "dup"); !g.Found || g.Ver != puts || string(g.Val) != fmt.Sprintf("v%d", puts-1) {
			t.Errorf("final state = %+v, want ver %d val %q", g, puts, fmt.Sprintf("v%d", puts-1))
		}
		done = true
	})
	rt.Run()
	if !done {
		t.Fatal("final check never ran")
	}
}

func TestOversizedValueRejected(t *testing.T) {
	w := newSW(8, smallParams(), 13, nil)
	defer w.rt.Shutdown()
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		r := w.kv.Put(th, "big", make([]byte, 5000))
		if r.OK || r.Err == "" {
			t.Errorf("oversized put accepted: %+v", r)
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}
}

// TestAckedWritesSurviveImmediateCrash: the durability contract in its
// simplest form — after a synchronous Put returns, a crash (snapshot
// the platters, reboot a fresh machine on them) must preserve it.
func TestAckedWritesSurviveImmediateCrash(t *testing.T) {
	p := smallParams()
	w := newSW(8, p, 17, nil)
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 8; i++ {
			w.kv.Put(th, fmt.Sprintf("d%d", i), []byte(fmt.Sprintf("val%d", i)))
		}
	})
	w.rt.Run()
	var datas []map[int][]byte
	for _, d := range w.kv.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	w.rt.Shutdown()

	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: 18})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt, pFilled(p), data))
	}
	kv := New(rt, k, p, disks)
	ok := false
	rt.Boot("reader", func(th *core.Thread) {
		for i := 0; i < 8; i++ {
			g := kv.Get(th, fmt.Sprintf("d%d", i))
			if !g.Found || string(g.Val) != fmt.Sprintf("val%d", i) {
				t.Errorf("after recovery, d%d = %+v", i, g)
			}
		}
		ok = true
	})
	rt.Run()
	if !ok {
		t.Fatal("reader never finished")
	}
	if kv.Counters().Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
}

// TestFailedFlushFailStopsShard: a failed group-commit write used to
// nack its waiters but leave the index and cache pointing at records
// that never persisted — readers then served values whose writes were
// reported failed, and a restart diverged from the live view. The fix
// is fail-stop: the shard refuses everything after a log-write error,
// and a restart recovers exactly the durable prefix.
func TestFailedFlushFailStopsShard(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 21, nil)
	checked := false
	w.rt.Boot("app", func(th *core.Thread) {
		if r := w.kv.Put(th, "good", []byte("v1")); !r.OK {
			t.Errorf("setup put: %+v", r)
			return
		}
		w.kv.Disks()[0].InjectWriteFailures(1)
		if r := w.kv.Put(th, "bad", []byte("boom")); r.OK || r.Err == "" {
			t.Errorf("write riding a failed flush was acked: %+v", r)
		}
		// The shard must now refuse everything — in particular it must
		// not serve "bad" from the open block it still sits in.
		if g := w.kv.Get(th, "bad"); g.Err == "" || g.Found {
			t.Errorf("fail-stopped shard served an unpersisted write: %+v", g)
		}
		if g := w.kv.Get(th, "good"); g.Err == "" {
			t.Errorf("fail-stopped shard served a read: %+v", g)
		}
		if r := w.kv.Put(th, "after", []byte("x")); r.OK {
			t.Errorf("fail-stopped shard accepted a write: %+v", r)
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

	// Restart on the surviving platters: the acked write is there, the
	// failed one provably is not — live view and recovered view agree.
	data := w.kv.Disks()[0].SnapshotData()
	w.rt.Shutdown()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: 22})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, []*blockdev.Disk{blockdev.NewDiskFrom(rt, pFilled(p), data)})
	ok := false
	rt.Boot("auditor", func(th *core.Thread) {
		if g := kv.Get(th, "good"); !g.Found || string(g.Val) != "v1" {
			t.Errorf("acked write lost across fail-stop restart: %+v", g)
		}
		if g := kv.Get(th, "bad"); g.Found {
			t.Errorf("failed-reported write survived restart: %+v", g)
		}
		ok = true
	})
	rt.Run()
	if !ok {
		t.Fatal("auditor never finished")
	}
}

// TestSealedBlockNotCachedUntilFlushed pins the seal/cache ordering: a
// sealed block's contents enter the cache only when the write that
// seals it completes. A GET landing in the seal-to-completion gap must
// go to the disk (queued behind the seal write — slower, never data the
// platters might not get), and once the flush completes the block must
// serve as a cache hit without a disk read.
func TestSealedBlockNotCachedUntilFlushed(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 25, nil)
	defer w.rt.Shutdown()
	val := make([]byte, 600) // 6 records per 4 KB block
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		// Overflow the first block with async puts, then read a key from
		// it before the seal write's completion interrupt can arrive.
		var acks []*core.Chan
		for i := 0; i < 7; i++ {
			acks = append(acks, w.kv.PutAsync(th, fmt.Sprintf("k%02d", i), val))
		}
		missesBefore := w.kv.Counters().CacheMisses
		if g := w.kv.Get(th, "k00"); !g.Found || len(g.Val) != len(val) {
			t.Errorf("get in the seal window: %+v", g)
		}
		if w.kv.Counters().CacheMisses == missesBefore {
			t.Error("sealed-but-unflushed block served from the cache")
		}
		for _, a := range acks {
			a.Recv(th)
		}
		// Seal a second block and let its flush complete (synchronous
		// puts): it must now be in the cache purely from the
		// flush-completion path — no read miss involved.
		for i := 7; i < 14; i++ {
			if r := w.kv.Put(th, fmt.Sprintf("k%02d", i), val); !r.OK {
				t.Errorf("put %d: %+v", i, r)
			}
		}
		missesBefore = w.kv.Counters().CacheMisses
		hitsBefore := w.kv.Counters().CacheHits
		if g := w.kv.Get(th, "k07"); !g.Found {
			t.Errorf("get after flush completion: %+v", g)
		}
		if w.kv.Counters().CacheMisses != missesBefore || w.kv.Counters().CacheHits == hitsBefore {
			t.Error("flushed sealed block did not serve as a cache hit")
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}
}

// pFilled resolves a Params' disk geometry the way New does.
func pFilled(p Params) blockdev.DiskParams {
	p.fill()
	return p.Disk
}

// digest runs a seeded mixed workload and returns everything countable.
func digest(seed uint64) [6]uint64 {
	p := smallParams()
	w := newSW(16, p, seed, nil)
	defer w.rt.Shutdown()
	rng := sim.NewRNG(seed)
	for i := 0; i < 4; i++ {
		i := i
		w.rt.Boot(fmt.Sprintf("app.%d", i), func(th *core.Thread) {
			for j := 0; j < 30; j++ {
				k := fmt.Sprintf("k%d", rng.Uint64n(16))
				if rng.Bool(0.5) {
					w.kv.Put(th, k, []byte{byte(j)})
				} else {
					w.kv.Get(th, k)
				}
			}
		})
	}
	w.rt.RunFor(20_000_000)
	return [6]uint64{w.kv.Counters().Gets, w.kv.Counters().Puts, w.kv.Counters().AckedWrites, w.kv.Counters().CacheHits, w.kv.Counters().FlushesDone, w.eng.Fired()}
}

// TestStoreDeterministicReplay: the whole store — group commit timing,
// disk interrupts, shard interleaving — replays exactly from a seed.
func TestStoreDeterministicReplay(t *testing.T) {
	a := digest(9)
	b := digest(9)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a[2] == 0 {
		t.Fatal("workload acked nothing")
	}
}
