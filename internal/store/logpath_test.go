package store

import (
	"fmt"
	"testing"

	"chanos/internal/core"
)

// TestLogPathAllocs pins the host cost of the store's write path once
// warm: a PUT from one thread, each riding a group-commit flush of its
// own that completes before the next PUT. The log path itself — pooled
// request and completion records, the group-commit batch, the disk's
// relay, the replication batch buffers, refs and ack messages — adds
// nothing but the disk's one staged copy per log write. Measured per
// PUT: solo 2.10 (10.57 before the log path was pooled), replicated
// with one replica machine 9.22 (33.19 before). What still allocates:
//
//   - the reply box: the WriteResult a PUT is answered with is a value
//     boxed into the reply message (1);
//   - the staged block copy of each log write, on each machine (1 solo,
//     2 replicated);
//   - a fresh open block whenever one seals (~0.06 per machine);
//   - replicated only: each PUT ships two batches, the tail
//     advertisement half a flush interval in and the record itself at
//     the flush, and the replica answers both. Each batch costs its
//     ReplBatch and ReplAck wire payloads and the ReplAck reply box of
//     its apply (6).
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
		{"solo", false, 2.5},
		{"replicated", true, 10},
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
