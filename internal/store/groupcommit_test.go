package store

import (
	"fmt"
	"testing"

	"chanos/internal/core"
)

// slowDiskParams is a one-shard store whose log writes take 400k cycles
// (200 µs), twenty group-commit intervals, so the timer always fires
// while a write of the shard is still on the disk.
func slowDiskParams() Params {
	p := smallParams()
	p.Shards = 1
	p.Disk.AccessCycles = 400_000
	return p
}

// TestGroupCommitHoldsBehindInFlightWrite: while a log write of the
// shard is on the disk, the group-commit timer issues nothing. It holds
// the flush, and the completion that leaves no write outstanding issues
// one write carrying every record appended meanwhile, programmed before
// that completion's acks go out. A writer appends a small record every
// 20k cycles, so no block seals and every write is a group commit.
func TestGroupCommitHoldsBehindInFlightWrite(t *testing.T) {
	w := newSW(4, slowDiskParams(), 5, nil)
	defer w.rt.Shutdown()
	sh := w.kv.shards[0]
	const puts = 120
	done := false
	w.rt.Boot("writer", func(th *core.Thread) {
		var acks []*core.Chan
		for i := 0; i < puts; i++ {
			acks = append(acks, w.kv.PutAsync(th, fmt.Sprintf("k%03d", i), []byte("v")))
			th.Sleep(20_000)
		}
		for i, a := range acks {
			v, _ := a.Recv(th)
			if r := w.kv.takeWrite(v); !r.OK {
				t.Errorf("put %d: %+v", i, r)
			}
		}
		done = true
	})

	held := 0 // completions that issued a held flush
	for {
		wasHeld, dirty := sh.flushHeld, sh.dirty
		started, finished, acked := sh.m.FlushesStarted, sh.m.FlushesDone, sh.m.AckedWrites
		if !w.eng.Step() {
			break
		}
		if out := sh.m.FlushesStarted - sh.m.FlushesDone; out > 1 {
			t.Fatalf("%d group-commit writes outstanding at %d, want at most 1", out, w.eng.Now())
		}
		if sh.m.FlushesDone == finished || !wasHeld {
			continue
		}
		// The completion of the write the flush was held behind.
		held++
		if sh.m.AckedWrites != acked {
			t.Fatalf("the completed batch was acked (%d acks) before the held write was programmed",
				sh.m.AckedWrites-acked)
		}
		if sh.m.FlushesStarted != started+1 {
			t.Fatalf("completion issued %d writes for the held flush, want 1", sh.m.FlushesStarted-started)
		}
		if dirty == 0 || sh.dirty != 0 || len(sh.waiters) != 0 {
			t.Fatalf("held write left records behind: %d dirty before, %d dirty and %d waiters after",
				dirty, sh.dirty, len(sh.waiters))
		}
	}
	if !done {
		t.Fatal("writer never finished")
	}
	if held < 3 {
		t.Fatalf("only %d completions issued a held flush; the slow disk should hold most", held)
	}
	if c := w.kv.Counters(); c.AckedWrites != puts || c.FlushedRecords != puts {
		t.Fatalf("acked %d and flushed %d records, want %d", c.AckedWrites, c.FlushedRecords, puts)
	}
}

// TestFailedWriteIssuesNoHeldFlush: when the write a flush is held
// behind fails, the completion issues nothing. The shard fail-stops,
// and every write parked on it, the failed batch and the records held
// since, is nacked.
func TestFailedWriteIssuesNoHeldFlush(t *testing.T) {
	w := newSW(4, slowDiskParams(), 9, nil)
	defer w.rt.Shutdown()
	sh := w.kv.shards[0]
	done := false
	w.rt.Boot("writer", func(th *core.Thread) {
		w.kv.Disks()[0].InjectWriteFailures(1)
		acks := []*core.Chan{w.kv.PutAsync(th, "first", []byte("v"))}
		th.Sleep(100_000) // the first write is on the disk now
		for i := 0; i < 4; i++ {
			acks = append(acks, w.kv.PutAsync(th, fmt.Sprintf("held%d", i), []byte("v")))
			th.Sleep(30_000)
		}
		for i, a := range acks {
			v, _ := a.Recv(th)
			if r := w.kv.takeWrite(v); r.OK || r.Err == "" {
				t.Errorf("write %d parked on a failed log write was acked: %+v", i, r)
			}
		}
		done = true
	})

	sawHeld := false
	for w.eng.Step() {
		if sh.m.FlushesDone == 0 {
			sawHeld = sawHeld || sh.flushHeld
		}
		if sh.m.FlushesStarted > 1 {
			t.Fatalf("a write was issued after the failed one (FlushesStarted = %d, shard failed: %v)",
				sh.m.FlushesStarted, sh.failed != "")
		}
	}
	if !done {
		t.Fatal("writer never finished")
	}
	if !sawHeld {
		t.Fatal("the timer never held a flush behind the failing write")
	}
	if sh.failed == "" || sh.m.writesInFlight != 0 {
		t.Fatalf("shard failed %q with %d writes still parked: want a fail-stop that nacked every one",
			sh.failed, sh.m.writesInFlight)
	}
	c := w.kv.Counters()
	if c.FailedShards != 1 || c.WriteErrors != 5 || c.AckedWrites != 0 || c.FlushesStarted != 1 {
		t.Fatalf("FailedShards %d, WriteErrors %d, AckedWrites %d, FlushesStarted %d: want 1, 5, 0, 1",
			c.FailedShards, c.WriteErrors, c.AckedWrites, c.FlushesStarted)
	}
}
