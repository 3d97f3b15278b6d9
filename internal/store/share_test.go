package store

import (
	"bytes"
	"fmt"
	"testing"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim/detmap"
)

// lentBlocks reads every block disk holds through its own read path,
// on a thread of rt, and returns the buffers the reads lend (the
// platter's own, not copies) by block number.
func lentBlocks(t *testing.T, rt *core.Runtime, disk *blockdev.Disk) map[int][]byte {
	t.Helper()
	out := map[int][]byte{}
	rt.Boot("lend", func(th *core.Thread) {
		irq := th.NewChan("irq", 1)
		for _, b := range detmap.Keys(disk.SnapshotData()) {
			disk.Program(th, blockdev.Request{Op: blockdev.Read, Block: b}, func(res blockdev.Result) {
				rt.InjectSend(irq, res, th.Core())
			})
			v, _ := irq.Recv(th)
			out[b] = v.(blockdev.Result).Data
		}
	})
	rt.Run()
	if len(out) == 0 {
		t.Fatal("the disk holds no block")
	}
	return out
}

// sameArray reports whether a and b start in one backing array.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// shareParams seals a few dozen blocks per shard with room to spare in
// the cache and the log, so nothing compacts or is evicted.
func shareParams() Params {
	return Params{Shards: 2, CacheBlocks: 256, FlushCycles: 20_000, LogBlocks: 256}
}

// putMany writes n keys with 300-byte values through kv, checking the
// acks.
func putMany(t *testing.T, rt *core.Runtime, kv *Store, prefix string, n int) {
	t.Helper()
	done := false
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s%03d", prefix, i)
			if r := kv.Put(th, key, bytes.Repeat([]byte{byte(i)}, 300)); !r.OK {
				t.Errorf("put %s: %+v", key, r)
				return
			}
		}
		done = true
	})
	rt.Run()
	if !done {
		t.Fatal("writer never finished")
	}
}

// sharedSealed checks replica shard i's sealed blocks against the
// primary's: every one whose bytes equal the primary's block at the
// same number shares its backing array, and none that differs does. It
// returns the primary's and the replica's blocks and how many sealed
// blocks the two share.
func sharedSealed(t *testing.T, primary, replica *Machine, i int) (pb, rb map[int][]byte, shared int) {
	t.Helper()
	pb = lentBlocks(t, primary.RT, primary.KV.disks[i])
	rb = lentBlocks(t, replica.RT, replica.KV.disks[i])
	for _, b := range detmap.Keys(rb) {
		if b == 0 || b == replica.KV.shards[i].openBlock {
			continue // the superblock and the open block are never sealed
		}
		switch equal, same := bytes.Equal(rb[b], pb[b]), sameArray(rb[b], pb[b]); {
		case equal && !same:
			t.Errorf("shard %d block %d: the replica keeps its own copy of the primary's sealed block", i, b)
		case !equal && same:
			t.Errorf("shard %d block %d: the replica shares a buffer whose bytes differ", i, b)
		case same:
			shared++
		}
	}
	t.Logf("shard %d: %d of %d replica blocks share the primary's buffer", i, shared, len(rb))
	return pb, rb, shared
}

// TestReplicaSharesPrimarySealedBlocks: after a replicated drive, every
// sealed replica block byte-equal to the primary's block at the same
// number is the primary's buffer, the replica's cache holds those same
// buffers, and the replica's GETs read what the primary's do. A
// replica rebooted from its platters holds copies.
func TestReplicaSharesPrimarySealedBlocks(t *testing.T) {
	const seed, keys = 53, 300
	p := shareParams()
	w := newRW(8, p, seed, quietWire(seed), nil)
	defer w.shutdown()
	putMany(t, w.rt, w.kv, "s", keys)
	primary := &Machine{RT: w.rt, KV: w.kv}

	pbs, rbs := make([]map[int][]byte, len(w.kv.shards)), make([]map[int][]byte, len(w.kv.shards))
	for i := range w.kv.shards {
		pb, rb, shared := sharedSealed(t, primary, w.rm.Machine, i)
		pbs[i], rbs[i] = pb, rb
		if shared < 5 {
			t.Fatalf("shard %d shares %d sealed blocks with the primary, want at least 5", i, shared)
		}
		cache := w.rm.KV.shards[i].cache
		cachedShared := 0
		for b, n := range cache.m {
			if !sameArray(n.data, rb[b]) || !bytes.Equal(n.data, rb[b][:len(n.data)]) {
				t.Errorf("shard %d: the replica's cache entry for block %d is not its platter's block", i, b)
			}
			if sameArray(n.data, pb[b]) {
				cachedShared++
			}
		}
		if cachedShared < shared {
			t.Errorf("shard %d: %d cache entries point at the primary's buffers, want all %d shared blocks", i, cachedShared, shared)
		}
	}

	want := map[string][]byte{}
	w.rt.Boot("primary.get", func(th *core.Thread) {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("s%03d", i)
			want[key] = w.kv.Get(th, key).Val
		}
	})
	w.rt.Run()
	checked := 0
	w.rm.RT.Boot("replica.get", func(th *core.Thread) {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("s%03d", i)
			if g := w.rm.KV.Get(th, key); !g.Found || !bytes.Equal(g.Val, want[key]) || len(g.Val) != 300 {
				t.Errorf("replica GET %s = %d bytes (found %v), want the primary's 300", key, len(g.Val), g.Found)
			}
			checked++
		}
	})
	w.rm.RT.Run()
	if checked != keys {
		t.Fatalf("replica reader checked %d keys of %d", checked, keys)
	}

	// A reboot from the platters copies every block.
	platters := w.rm.KV.Platters()
	h := bootHW(8, p, seed+5, platters)
	defer h.rt.Shutdown()
	for i, d := range h.kv.Disks() {
		for b, buf := range lentBlocks(t, h.rt, d) {
			if !bytes.Equal(buf, rbs[i][b]) {
				t.Fatalf("shard %d block %d: the rebooted replica's block differs from its platter", i, b)
			}
			if sameArray(buf, rbs[i][b]) || sameArray(buf, pbs[i][b]) {
				t.Fatalf("shard %d block %d: the rebooted replica shares a buffer with the old world", i, b)
			}
		}
	}
}

// TestAttachReplicaRepointsShare: attaching a replica to a second
// primary makes the replica's disks share from that primary's. The
// first primary writes nothing, so a replica still sharing from it
// would keep its own copies.
func TestAttachReplicaRepointsShare(t *testing.T) {
	const seed = 59
	p := shareParams()
	w := newRW(8, p, seed, quietWire(seed), nil)
	defer w.shutdown()

	m2 := machine.New(w.eng, machine.DefaultParams(8))
	rt2 := core.NewRuntime(m2, core.Config{Seed: seed + 9})
	defer rt2.Shutdown()
	kv2 := New(rt2, kernel.New(rt2, kernel.Config{}), p, nil)
	kv2.AttachReplica(w.rm)
	putMany(t, rt2, kv2, "r", 200)

	second := &Machine{RT: rt2, KV: kv2}
	for i := range kv2.shards {
		if _, _, shared := sharedSealed(t, second, w.rm.Machine, i); shared < 3 {
			t.Fatalf("shard %d shares %d sealed blocks with the primary it was attached to last, want at least 3", i, shared)
		}
	}
}
