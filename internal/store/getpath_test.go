package store

import (
	"bytes"
	"fmt"
	"testing"

	"chanos/internal/core"
)

// A GET's value is a read-only view of the log block that holds it, not
// a copy (DESIGN.md §store). These tests hold served values across
// everything that happens to a block afterwards and check that every
// one still reads back byte-exact.

// blockVal is a 600-byte value (six records to a 4 KB block) whose
// bytes name its key and version, so any two differ.
func blockVal(key string, ver int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s@%d;", key, ver)), 100)[:600]
}

// heldVal is a served value and the bytes it must keep.
type heldVal struct {
	what string
	got  []byte
	want []byte
}

// checkHeld reports whether every held value still reads back exact.
func checkHeld(t *testing.T, held []heldVal) bool {
	t.Helper()
	for _, h := range held {
		if !bytes.Equal(h.got, h.want) {
			t.Errorf("%s: held value changed: got %.24q…, want %.24q…", h.what, h.got, h.want)
			return false
		}
	}
	return true
}

// TestServedValueOutlivesOpenBlock: a value served from the open block
// stays exact while later records append to that block, while the
// block seals, flushes and enters the cache, and after the cache evicts
// it; values served from the cache and from the disk read that brings
// the block back stay exact too.
func TestServedValueOutlivesOpenBlock(t *testing.T) {
	p := Params{Shards: 1, CacheBlocks: 1, FlushCycles: 20_000, LogBlocks: 64}
	w := newSW(8, p, 61, nil)
	defer w.rt.Shutdown()
	sh := w.kv.shards
	var held []heldVal
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		get := func(key string, ver int, what string) {
			g := w.kv.Get(th, key)
			if !g.Found || g.Ver != uint64(ver) {
				t.Errorf("%s: get %s = %+v", what, key, g)
				return
			}
			held = append(held, heldVal{what + " " + key, g.Val, blockVal(key, ver)})
		}
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%02d", i)
			if r := w.kv.Put(th, key, blockVal(key, 1)); !r.OK {
				t.Errorf("put %s: %+v", key, r)
				return
			}
			if l := sh[0].idx[key]; l.block != sh[0].openBlock {
				t.Errorf("%s is not in the open block", key)
				return
			}
			get(key, 1, "open block")
			if !checkHeld(t, held) {
				return
			}
			if i == 9 {
				// k00's block is sealed and cached by now (k06 sealed
				// it); k08's block is open.
				get("k00", 1, "cache hit")
			}
		}
		first := sh[0].idx["k00"].block
		if _, cached := sh[0].cache.m[first]; cached || first == sh[0].openBlock {
			t.Errorf("k00's block %d is still cached or open", first)
			return
		}
		get("k00", 1, "disk read")
		get("k01", 1, "cache hit after the read")
		done = checkHeld(t, held)
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread did not finish with every held value exact")
	}
	c := w.kv.Counters()
	if c.CacheMisses == 0 || c.CacheHits < 21 {
		t.Fatalf("hits %d, misses %d: the paths under test were not all taken", c.CacheHits, c.CacheMisses)
	}
}

// TestServedValueOutlivesEpochSwitch: a value served from the cache
// stays exact across the compaction that retires its region (the cache
// drops the block and the device trims it) and the next one, which
// rewrites its block number under a later epoch.
func TestServedValueOutlivesEpochSwitch(t *testing.T) {
	p := tinyRegionParams(1)
	p.CacheBlocks = 64 // both regions fit: the epoch switch, not LRU, drops the block
	w := newSW(8, p, 67, nil)
	defer w.rt.Shutdown()
	sh := w.kv.shards
	var held []heldVal
	block := -1
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("hold%d", i)
			if r := w.kv.Put(th, key, blockVal(key, 1)); !r.OK {
				t.Errorf("put %s: %+v", key, r)
				return
			}
		}
		block = sh[0].idx["hold0"].block
		if _, cached := sh[0].cache.m[block]; !cached || block == sh[0].openBlock {
			t.Errorf("hold0's block %d is not a sealed, cached block", block)
			return
		}
		hits := w.kv.Counters().CacheHits
		g := w.kv.Get(th, "hold0")
		if !g.Found || w.kv.Counters().CacheHits != hits+1 {
			t.Errorf("hold0 was not a cache hit: %+v", g)
			return
		}
		held = append(held, heldVal{"cache hit hold0", g.Val, blockVal("hold0", 1)})
		for v := 1; w.kv.Counters().CompactionsDone < 2; v++ {
			key := fmt.Sprintf("churn%d", v%8)
			if r := w.kv.Put(th, key, blockVal(key, v)); !r.OK {
				t.Errorf("churn put %d: %+v", v, r)
				return
			}
			if !checkHeld(t, held) {
				return
			}
		}
		// Fill the region hold0's old block number lives in until that
		// block holds the current epoch's records.
		for v := 1; sh[0].openBlock <= block; v++ {
			key := fmt.Sprintf("churn%d", v%8)
			if r := w.kv.Put(th, key, blockVal(key, v)); !r.OK {
				t.Errorf("refill put %d: %+v", v, r)
				return
			}
		}
		if g := w.kv.Get(th, "hold0"); !g.Found || !bytes.Equal(g.Val, blockVal("hold0", 1)) {
			t.Errorf("hold0 after two epoch switches = %+v", g)
		}
		done = checkHeld(t, held)
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread did not finish with every held value exact")
	}
	c := w.kv.Counters()
	if c.CompactionsDone < 2 || w.kv.Disks()[0].Trims < 2 {
		t.Fatalf("%d compactions, %d trims: the epoch switches did not happen", c.CompactionsDone, w.kv.Disks()[0].Trims)
	}
	if e := blockEpoch(w.kv.Disks()[0].SnapshotData()[block]); e != sh[0].epoch {
		t.Fatalf("block %d holds epoch %d records, want the current epoch %d", block, e, sh[0].epoch)
	}
}

// TestParkedGetsShareOneRead: two GETs for different keys of one
// evicted block park on the same disk read, and each is answered with
// its own key's value.
func TestParkedGetsShareOneRead(t *testing.T) {
	p := Params{Shards: 1, CacheBlocks: 1, FlushCycles: 20_000, LogBlocks: 64}
	w := newSW(8, p, 71, nil)
	defer w.rt.Shutdown()
	filled := false
	w.rt.Boot("fill", func(th *core.Thread) {
		for i := 0; i < 14; i++ {
			key := fmt.Sprintf("k%02d", i)
			if r := w.kv.Put(th, key, blockVal(key, 1)); !r.OK {
				t.Errorf("put %s: %+v", key, r)
			}
		}
		filled = true
	})
	w.rt.Run()
	if !filled {
		t.Fatal("fill thread never finished")
	}
	sh := w.kv.shards[0]
	if b := sh.idx["k00"].block; b != sh.idx["k02"].block || sh.cache.m[b] != nil {
		t.Fatalf("k00 and k02 are not in one evicted block")
	}
	reads, misses := w.kv.Disks()[0].Reads, w.kv.Counters().CacheMisses
	got := map[string]GetResult{}
	for i, key := range []string{"k00", "k02"} {
		w.rt.Boot("get."+key, func(th *core.Thread) {
			got[key] = w.kv.Get(th, key)
		}, core.OnCore(i+1))
	}
	w.rt.Run()
	if d := w.kv.Disks()[0].Reads - reads; d != 1 {
		t.Fatalf("%d disk reads for two GETs of one block, want 1", d)
	}
	if d := w.kv.Counters().CacheMisses - misses; d != 2 {
		t.Fatalf("%d cache misses, want 2", d)
	}
	for _, key := range []string{"k00", "k02"} {
		if g := got[key]; !g.Found || g.Ver != 1 || !bytes.Equal(g.Val, blockVal(key, 1)) {
			t.Errorf("parked get %s = %+v", key, g)
		}
	}
}

// TestFailStopAnswersParkedReads: a fail-stop answers a GET parked on a
// cache-miss read and a replica read parked on the durable horizon
// with error replies, each to its own caller.
func TestFailStopAnswersParkedReads(t *testing.T) {
	t.Run("cache miss", func(t *testing.T) {
		p := Params{Shards: 1, CacheBlocks: 1, FlushCycles: 20_000, LogBlocks: 64}
		w := newSW(8, p, 73, nil)
		defer w.rt.Shutdown()
		var g GetResult
		done := false
		w.rt.Boot("app", func(th *core.Thread) {
			for i := 0; i < 14; i++ {
				key := fmt.Sprintf("k%02d", i)
				w.kv.Put(th, key, blockVal(key, 1))
			}
			// k18 seals the open block (k12-k17): the seal's write is
			// programmed at once and fails, and k00's read queues behind it.
			w.kv.Disks()[0].InjectWriteFailures(1)
			var acks []*core.Chan
			for i := 14; i < 19; i++ {
				key := fmt.Sprintf("k%02d", i)
				acks = append(acks, w.kv.PutAsync(th, key, blockVal(key, 1)))
			}
			g = w.kv.Get(th, "k00")
			for _, a := range acks {
				a.Recv(th)
			}
			done = true
		})
		w.rt.Run()
		if !done {
			t.Fatal("app thread hung across the fail-stop")
		}
		c := w.kv.Counters()
		if c.FailedShards != 1 || c.CacheMisses == 0 {
			t.Fatalf("FailedShards %d, CacheMisses %d: the read did not park before the fail-stop", c.FailedShards, c.CacheMisses)
		}
		if g.Found || g.Err == "" || g.Val != nil {
			t.Errorf("parked GET after fail-stop = %+v, want an error reply", g)
		}
	})
	t.Run("replica read", func(t *testing.T) {
		const seed = 83
		p := Params{Shards: 1, CacheBlocks: 4, LogBlocks: 64,
			FlushCycles: 5_000_000, ReplAdvertiseCycles: 50_000, ReplicaLagBound: 4}
		w := newRW(8, p, seed, quietWire(seed), nil)
		defer w.shutdown()
		w.rt.Boot("burst", func(th *core.Thread) {
			for i := 0; i < 32; i++ {
				w.kv.PutAsync(th, fmt.Sprintf("lag%02d", i), []byte("v"))
			}
		})
		// Past the primary's flush at 5 ms: the batch has applied on the
		// replica, whose own group commit is still 5 ms out.
		w.rt.RunFor(5_300_000)
		w.rm.KV.Disks()[0].InjectWriteFailures(1)
		var got GetResult
		served := false
		w.rm.RT.Boot("reader", func(th *core.Thread) {
			got = w.rm.KV.GetReplica(th, "lag00")
			served = true
		})
		w.rt.RunFor(200_000)
		if served || w.rm.KV.Counters().ReplicaWaits == 0 {
			t.Fatalf("the replica read did not park (served %v)", served)
		}
		w.rt.RunFor(6_000_000)
		if !served {
			t.Fatal("parked replica read hung across the fail-stop")
		}
		if w.rm.KV.Counters().FailedShards != 1 {
			t.Fatalf("replica FailedShards = %d, want 1", w.rm.KV.Counters().FailedShards)
		}
		if got.Found || got.Err == "" || got.Val != nil {
			t.Errorf("parked replica read after fail-stop = %+v, want an error reply", got)
		}
	})
}

// TestServedValueIsFullSlice: every served value's capacity ends at its
// length, so an append to it reallocates instead of writing into the
// block behind it.
func TestServedValueIsFullSlice(t *testing.T) {
	p := Params{Shards: 1, CacheBlocks: 1, FlushCycles: 20_000, LogBlocks: 64}
	w := newRW(8, p, 79, quietWire(79), nil)
	defer w.shutdown()
	var vals [][]byte
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 14; i++ {
			key := fmt.Sprintf("k%02d", i)
			w.kv.Put(th, key, blockVal(key, 1))
			vals = append(vals, w.kv.Get(th, key).Val) // open block
		}
		vals = append(vals, w.kv.Get(th, "k00").Val) // disk read
		vals = append(vals, w.kv.Get(th, "k01").Val) // cache hit
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}
	w.rm.RT.Boot("reader", func(th *core.Thread) {
		vals = append(vals, w.rm.KV.GetReplica(th, "k13").Val)
	})
	w.rt.Run()
	if len(vals) != 17 {
		t.Fatalf("%d values served, want 17", len(vals))
	}
	for i, v := range vals {
		if len(v) != 600 || cap(v) != len(v) {
			t.Errorf("value %d: len %d, cap %d", i, len(v), cap(v))
		}
	}
}
