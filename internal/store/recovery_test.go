package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

// ackRec is a writer-side record of one acknowledged PUT.
type ackRec struct {
	ver uint64
	val string
}

// TestCrashMidFlushRecovery is the durability contract under a crash,
// exercised end to end: run a seeded write workload, cut the power at a
// deterministically-chosen instant while a group-commit flush is in
// flight, carry the platters into a fresh machine, replay the logs, and
// assert that the recovered state is EXACTLY the acknowledged state —
// every acked PUT survives at its acked version and value, and no
// unacknowledged PUT outlives the flush it was waiting on.
//
// The crash instant is found by stepping virtual time until
//   - at least one log write is in flight (mid-flush),
//   - every committed write's completion interrupt has been processed
//     (disk commits == flushes done), and
//   - every sent ack has been received by its writer,
//
// which closes the commit-to-ack races a sloppier crash point would
// hit: at such an instant, durable records and acknowledged records are
// the same set by construction, so the assertion is exact — and the
// whole hunt is deterministic from the seed. The held-flush case also
// requires a shard whose group commit is held behind that write, with
// records appended since: the crash takes them before any write of
// theirs is issued.
func TestCrashMidFlushRecovery(t *testing.T) {
	for _, c := range []struct {
		name  string
		point func(kv *Store) bool
	}{
		{"mid-flush", func(*Store) bool { return true }},
		{"held-flush", func(kv *Store) bool {
			for _, sh := range kv.shards {
				if sh.flushHeld && sh.dirty > 0 {
					return true
				}
			}
			return false
		}},
	} {
		t.Run(c.name, func(t *testing.T) { crashMidFlush(t, c.point) })
	}
}

// crashMidFlush runs TestCrashMidFlushRecovery's hunt with one more
// condition on the crash instant, point.
func crashMidFlush(t *testing.T, point func(kv *Store) bool) {
	const seed = 29
	p := Params{Shards: 2, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 64}

	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, nil)

	const writers = 6
	acked := map[string]ackRec{}  // last acknowledged PUT per key
	issued := map[string]string{} // last issued value per key (acked or not)
	inflight := map[int]string{}  // writer -> key of its outstanding PUT
	var issuedCount, ackedCount uint64
	rng := sim.NewRNG(seed)
	for wtr := 0; wtr < writers; wtr++ {
		wtr := wtr
		rt.Boot(fmt.Sprintf("writer.%d", wtr), func(th *core.Thread) {
			for round := 0; ; round++ {
				key := fmt.Sprintf("k%02d", rng.Uint64n(24))
				val := fmt.Sprintf("%s@w%d.%d", key, wtr, round)
				issued[key] = val
				inflight[wtr] = key
				issuedCount++
				r := kv.Put(th, key, []byte(val))
				delete(inflight, wtr)
				if !r.OK {
					t.Errorf("writer %d: put %q failed: %+v", wtr, key, r)
					return
				}
				acked[key] = ackRec{ver: r.Ver, val: val}
				ackedCount++
			}
		})
	}

	// Hunt the crash instant. (Superblock writes — epoch commits — are
	// disk writes that are not flushes; none happen at this scale, but
	// the accounting stays honest either way.)
	committed := func() uint64 {
		var n uint64
		for _, d := range kv.Disks() {
			n += d.Writes
		}
		return n
	}
	found := false
	for step := 0; step < 200_000; step++ {
		rt.RunFor(500)
		if ackedCount >= 20 &&
			kv.Counters().FlushesStarted > kv.Counters().FlushesDone &&
			committed() == kv.Counters().FlushesDone+kv.Counters().EpochWritesDurable &&
			ackedCount == kv.Counters().AckedWrites &&
			issuedCount > ackedCount && point(kv) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("never caught the store mid-flush with unacked writes at the crash point")
	}
	unackedAtCrash := len(inflight)
	if unackedAtCrash == 0 {
		t.Fatal("no PUT was outstanding at the crash point")
	}

	// Power cut: the platters keep only writes whose completion event
	// has fired.
	var datas []map[int][]byte
	for _, d := range kv.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	rt.Shutdown()

	// Reboot: fresh machine, same platters; recovery replays the logs.
	eng2 := sim.NewEngine()
	m2 := machine.New(eng2, machine.DefaultParams(8))
	rt2 := core.NewRuntime(m2, core.Config{Seed: seed + 1})
	defer rt2.Shutdown()
	k2 := kernel.New(rt2, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt2, pFilled(p), data))
	}
	kv2 := New(rt2, k2, p, disks)

	checked := false
	lostUnacked := 0
	rt2.Boot("auditor", func(th *core.Thread) {
		for key, lastVal := range issued {
			g := kv2.Get(th, key)
			want, wasAcked := acked[key]
			if wasAcked {
				if !g.Found {
					t.Errorf("acked PUT lost: %s=%q (ver %d)", key, want.val, want.ver)
					continue
				}
				if string(g.Val) != want.val || g.Ver != want.ver {
					t.Errorf("acked PUT corrupted: %s = %q v%d, want %q v%d",
						key, g.Val, g.Ver, want.val, want.ver)
				}
			} else if g.Found {
				t.Errorf("unacked-only key survived: %s = %q", key, g.Val)
			}
			// An unacked overwrite of an acked key must not have won.
			if g.Found && string(g.Val) == lastVal && (!wasAcked || want.val != lastVal) {
				t.Errorf("unacked PUT survived: %s = %q", key, lastVal)
			}
			if !g.Found && !wasAcked {
				lostUnacked++
			}
			if g.Found && wasAcked && want.val != lastVal {
				lostUnacked++ // acked version survived, unacked overwrite did not
			}
		}
		checked = true
	})
	rt2.Run()
	if !checked {
		t.Fatal("auditor never finished")
	}
	if kv2.Counters().Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if lostUnacked == 0 {
		t.Fatal("crash should have cost at least one unacknowledged PUT")
	}
	t.Logf("crash at %d acked / %d issued, %d in flight; recovery replayed %d records, %d unacked writes lost",
		ackedCount, issuedCount, unackedAtCrash, kv2.Counters().Replayed, lostUnacked)
}

// TestCrashMidCompactionRecovery is the same durability contract, cut
// at the protocol's most delicate instant: a compaction is mid-flight —
// the fresh region holds durable copies (and possibly redirected fresh
// writes), the old region is still the committed epoch, and the
// superblock has not switched. The power goes out; the reboot must
// (a) recover exactly the acknowledged state, picking records from
// *both* regions version-aware, and (b) resume the compaction where the
// fresh region's durable tail leaves off, commit it, and keep serving
// writes with zero LogFull refusals.
//
// The crash instant extends TestCrashMidFlushRecovery's hunt: on top of
// the drained-interrupt conditions that make durable == acked exact, it
// requires the first compaction to be started-but-uncommitted with at
// least one fresh-region block already on the platters (so the reboot
// exercises the resume path, not a from-scratch restart).
func TestCrashMidCompactionRecovery(t *testing.T) {
	const seed = 31
	p := Params{Shards: 2, CacheBlocks: 4, FlushCycles: 20_000, LogBlocks: 16,
		CompactBatch: 8, CompactStepCycles: 4_000}

	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	kv := New(rt, k, p, nil)

	const writers = 6
	pad := strings.Repeat("x", 160) // fat values cross the high-water mark fast
	acked := map[string]ackRec{}
	issued := map[string]string{}
	inflight := map[int]string{}
	var issuedCount, ackedCount uint64
	rng := sim.NewRNG(seed)
	for wtr := 0; wtr < writers; wtr++ {
		wtr := wtr
		rt.Boot(fmt.Sprintf("writer.%d", wtr), func(th *core.Thread) {
			for round := 0; ; round++ {
				key := fmt.Sprintf("c%02d", rng.Uint64n(24))
				val := fmt.Sprintf("%s@w%d.%d.%s", key, wtr, round, pad)
				issued[key] = val
				inflight[wtr] = key
				issuedCount++
				r := kv.Put(th, key, []byte(val))
				delete(inflight, wtr)
				if !r.OK {
					t.Errorf("writer %d: put %q failed: %+v", wtr, key, r)
					return
				}
				acked[key] = ackRec{ver: r.Ver, val: val}
				ackedCount++
			}
		})
	}

	committed := func() uint64 {
		var n uint64
		for _, d := range kv.Disks() {
			n += d.Writes
		}
		return n
	}
	// The first compaction targets the second region (epoch 0 -> 1).
	fresh := blockdev.Region{Start: 1 + p.LogBlocks, Blocks: p.LogBlocks}
	var datas []map[int][]byte
	found := false
	for step := 0; step < 400_000 && !found; step++ {
		rt.RunFor(500)
		if !(kv.Counters().CompactionsStarted == 1 && kv.Counters().CompactionsDone == 0 &&
			committed() == kv.Counters().FlushesDone+kv.Counters().EpochWritesDurable &&
			ackedCount == kv.Counters().AckedWrites &&
			issuedCount > ackedCount) {
			continue
		}
		datas = nil
		durableFresh := false
		for _, d := range kv.Disks() {
			snap := d.SnapshotData()
			datas = append(datas, snap)
			for b := range snap {
				if fresh.Contains(b) {
					durableFresh = true
				}
			}
		}
		found = durableFresh
	}
	if !found {
		t.Fatal("never caught a shard mid-compaction with durable fresh-region blocks")
	}
	unackedAtCrash := len(inflight)
	rt.Shutdown()

	// Reboot on the surviving platters.
	eng2 := sim.NewEngine()
	m2 := machine.New(eng2, machine.DefaultParams(8))
	rt2 := core.NewRuntime(m2, core.Config{Seed: seed + 1})
	defer rt2.Shutdown()
	k2 := kernel.New(rt2, kernel.Config{})
	var disks []*blockdev.Disk
	for _, data := range datas {
		disks = append(disks, blockdev.NewDiskFrom(rt2, pFilled(p), data))
	}
	kv2 := New(rt2, k2, p, disks)

	checked := false
	rt2.Boot("auditor", func(th *core.Thread) {
		for key, lastVal := range issued {
			g := kv2.Get(th, key)
			want, wasAcked := acked[key]
			if wasAcked {
				if !g.Found {
					t.Errorf("acked PUT lost: %s=%q (ver %d)", key, want.val, want.ver)
					continue
				}
				if string(g.Val) != want.val || g.Ver != want.ver {
					t.Errorf("acked PUT corrupted: %s = %q v%d, want %q v%d",
						key, g.Val, g.Ver, want.val, want.ver)
				}
			} else if g.Found {
				t.Errorf("unacked-only key survived: %s = %q", key, g.Val)
			}
			if g.Found && string(g.Val) == lastVal && (!wasAcked || want.val != lastVal) {
				t.Errorf("unacked PUT survived: %s = %q", key, lastVal)
			}
		}
		// Post-recovery service: churn well past the region again — the
		// resumed compaction (and its successors) must keep accepting.
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("c%02d", i%24)
			if r := kv2.Put(th, key, []byte(fmt.Sprintf("%s#%d.%s", key, i, pad))); !r.OK {
				t.Errorf("post-recovery put %d refused: %+v", i, r)
				return
			}
		}
		checked = true
	})
	rt2.Run()
	if !checked {
		t.Fatal("auditor never finished")
	}
	if kv2.Counters().Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if kv2.Counters().CompactionsStarted == 0 {
		t.Fatal("recovery did not resume the interrupted compaction")
	}
	if kv2.Counters().CompactionsDone == 0 {
		t.Fatal("resumed compaction never committed its epoch")
	}
	if kv2.Counters().LogFull != 0 {
		t.Fatalf("post-recovery writes refused: LogFull = %d", kv2.Counters().LogFull)
	}
	t.Logf("crash at %d acked / %d issued, %d in flight; replayed %d, resumed %d compactions (%d committed)",
		ackedCount, issuedCount, unackedAtCrash, kv2.Counters().Replayed, kv2.Counters().CompactionsStarted, kv2.Counters().CompactionsDone)
}

// TestRecoveredTailIsACopy: recovery reads the log tail's block, which
// the disk lends as the platter's own buffer, and appends continue in
// that block. The open block must be a copy, or a PUT appended after
// recovery would reach the platter before its flush completes, and a
// power cut in that window would keep a record nobody acknowledged.
func TestRecoveredTailIsACopy(t *testing.T) {
	p := Params{Shards: 1, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 64}
	w := bootHW(4, p, 31, nil)
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 4; i++ {
			w.kv.Put(th, fmt.Sprintf("k%d", i), []byte("before"))
		}
	})
	w.rt.Run()
	datas := snapDisks(w.kv)
	w.rt.Shutdown()

	w2 := bootHW(4, p, 32, datas)
	defer w2.rt.Shutdown()
	sh := w2.kv.shards[0]
	w2.rt.Boot("app", func(th *core.Thread) {
		if r := w2.kv.Put(th, "after", []byte("recovery")); !r.OK {
			t.Errorf("put after recovery: %s", r.Err)
		}
	})
	for sh.dirty == 0 {
		if !w2.eng.Step() {
			t.Fatal("engine ran dry before the PUT appended")
		}
	}
	if w2.kv.Counters().Replayed != 4 || sh.idx["after"].block != sh.idx["k0"].block {
		t.Fatalf("replayed %d records, PUT in block %d, recovered records in %d: want 4 and the recovered tail",
			w2.kv.Counters().Replayed, sh.idx["after"].block, sh.idx["k0"].block)
	}
	// Power cut: the PUT is appended, its flush not yet complete.
	if cut := snapDisks(w2.kv)[0]; !bytes.Equal(cut[sh.openBlock], datas[0][sh.openBlock]) {
		t.Fatal("an appended record reached the platter before its flush: the open block is the read's buffer")
	}
	w2.rt.Run()
	if now := snapDisks(w2.kv)[0]; bytes.Equal(now[sh.openBlock], datas[0][sh.openBlock]) {
		t.Fatal("the PUT's flush left the tail block unchanged")
	}
}
