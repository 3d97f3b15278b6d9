package store

import (
	"fmt"
	"testing"

	"chanos/internal/core"
)

// TestLogPathAllocs pins the host cost of the store's write path once
// warm: a PUT from one thread, each riding a group-commit flush of its
// own that completes before the next PUT. The log path — pooled
// request, reply and completion records, the group-commit batch, the
// disk's relay and its recycled staging blocks, the replication batch
// buffers, refs, the batch and ack records on the replication wire and
// the ack messages — allocates nothing. Measured per PUT: solo 0.07
// (10.57 before the log path was pooled, 2.10 while the reply was a
// boxed WriteResult, 1.10 while each log write staged a fresh block),
// replicated with one replica machine 0.16 (33.19 before, 9.22 while
// the reply and the replica's ack were boxed per hop, 6.22 while each
// batch and ack was boxed for the wire and each log write staged a
// fresh block). What still allocates comes with a seal, about once in
// 30 PUTs on each machine: the fresh open block, and the disk's stage
// for the first write to a block number, which retires no buffer.
func TestLogPathAllocs(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("log/%02d", i)
	}
	val := make([]byte, 100)
	p := Params{Shards: 1, CacheBlocks: 4}
	for _, tc := range []struct {
		name       string
		replicated bool
		ceiling    float64
	}{
		{"solo", false, 0.2},
		{"replicated", true, 0.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kv *Store
			var rt *core.Runtime
			var step func() bool
			if tc.replicated {
				w := newRW(4, p, 7, quietWire(7), nil)
				defer w.shutdown()
				kv, rt, step = w.kv, w.rt, w.eng.Step
			} else {
				w := newSW(4, p, 7, nil)
				defer w.rt.Shutdown()
				kv, rt, step = w.kv, w.rt, w.eng.Step
			}
			puts := 0
			rt.Boot("app", func(th *core.Thread) {
				for {
					if r := kv.Put(th, keys[puts%len(keys)], val); !r.OK {
						t.Errorf("put %d: %s", puts, r.Err)
						return
					}
					puts++
				}
			}, core.OnCore(1))
			const n = 200
			run := func() {
				for target := puts + n; puts < target; {
					if !step() {
						t.Fatal("engine ran dry before the puts completed")
					}
				}
			}
			run()
			run()
			per := testing.AllocsPerRun(5, run) / n
			t.Logf("%.2f allocs per PUT", per)
			if per > tc.ceiling {
				t.Fatalf("a warm PUT allocates %.2f, want <= %.1f", per, tc.ceiling)
			}
			if c := kv.Counters(); c.FlushesDone < uint64(puts)-1 {
				t.Fatalf("%d flushes for %d puts: the puts did not each ride their own flush", c.FlushesDone, puts)
			}
		})
	}
}

// TestGetPathAllocs pins the host cost of a warm GET from one thread,
// served from the open block and from the block cache: the request and
// reply records come from the store's free lists, the reply channel is
// the thread's own, and the value is a view of its block (GetResult),
// so nothing allocates. It was 2 per GET while the value was copied
// and the reply was a value boxed into the message.
func TestGetPathAllocs(t *testing.T) {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("get/%02d", i)
	}
	val := make([]byte, 100)
	for _, tc := range []struct {
		name   string
		filler int // records written after keys: enough to seal their block
	}{
		{"open block", 0},
		{"cache hit", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newSW(4, Params{Shards: 1, CacheBlocks: 4}, 7, nil)
			defer w.rt.Shutdown()
			sh := w.kv.shards
			gets, ready := 0, false
			w.rt.Boot("app", func(th *core.Thread) {
				for _, key := range keys {
					w.kv.Put(th, key, val)
				}
				for i := 0; i < tc.filler; i++ {
					w.kv.Put(th, fmt.Sprintf("fill/%02d", i), val)
				}
				ready = true
				for {
					if g := w.kv.Get(th, keys[gets%len(keys)]); !g.Found {
						t.Errorf("get %d: %+v", gets, g)
						return
					}
					gets++
				}
			}, core.OnCore(1))
			for !ready {
				if !w.eng.Step() {
					t.Fatal("engine ran dry before the keys were written")
				}
			}
			if open := sh[0].idx[keys[0]].block == sh[0].openBlock; open != (tc.filler == 0) {
				t.Fatalf("keys in the open block: %v, want %v", open, tc.filler == 0)
			}
			// One run is a GET of every key. AllocsPerRun averages whole
			// allocations per run, so a stray allocation of the Go
			// runtime's, once in a while, does not count.
			run := func() {
				for target := gets + len(keys); gets < target; {
					if !w.eng.Step() {
						t.Fatal("engine ran dry before the gets completed")
					}
				}
			}
			run()
			misses := w.kv.Counters().CacheMisses
			per := testing.AllocsPerRun(100, run)
			if w.kv.Counters().CacheMisses != misses {
				t.Fatal("a measured GET missed the cache")
			}
			if per != 0 {
				t.Fatalf("%d warm GETs allocate %.0f, want 0", len(keys), per)
			}
		})
	}
}
