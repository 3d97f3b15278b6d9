package store

import (
	"fmt"
	"strings"
	"testing"

	"chanos/internal/core"
)

// writeLaw is the slice of StoreCounters a single write may move.
type writeLaw struct {
	Puts, Deletes, DeleteMisses, VerWrites, VerStale, WriteErrors, LogFull uint64
}

func writeLawOf(c StoreCounters) writeLaw {
	return writeLaw{c.Puts, c.Deletes, c.DeleteMisses, c.VerWrites, c.VerStale, c.WriteErrors, c.LogFull}
}

func (a writeLaw) minus(b writeLaw) writeLaw {
	return writeLaw{a.Puts - b.Puts, a.Deletes - b.Deletes, a.DeleteMisses - b.DeleteMisses,
		a.VerWrites - b.VerWrites, a.VerStale - b.VerStale, a.WriteErrors - b.WriteErrors, a.LogFull - b.LogFull}
}

// writeRow is one write against one prepared key state. state is the
// key "k"'s state before the write: "absent"; "live" (two PUTs, so at
// version 2); "tomb" (a PUT then a DELETE, a tombstone at version 2);
// "full" (live at version 2, then the shard's log filled until a PUT
// is refused); or "failed" (live at version 1, then the shard
// fail-stopped by a failed flush).
type writeRow struct {
	name  string
	state string
	req   KVRequest
	ok    bool // OK in the reply; an error reply is !ok with a non-empty Err
	found bool
	ver   uint64
	law   writeLaw
	kind  string // flight-recorder kind the write records, "" for none
}

func put(val []byte) KVRequest            { return KVRequest{Op: WPut, Key: "k", Val: val} }
func putV(val []byte, v uint64) KVRequest { return KVRequest{Op: WPutV, Key: "k", Val: val, Ver: v} }
func delV(v uint64) KVRequest             { return KVRequest{Op: WDelV, Key: "k", Ver: v} }

var del = KVRequest{Op: WDelete, Key: "k"}

// TestWriteOutcomes pins what each of the four writes does to each key
// state: the reply, the write-law counters it moves, the flight event it
// records, and that it leaves the in-flight gauge where it found it.
func TestWriteOutcomes(t *testing.T) {
	x, big := []byte("x"), make([]byte, 5000)
	rows := []writeRow{
		{"put/absent", "absent", put(x), true, false, 1, writeLaw{Puts: 1}, "put"},
		{"put/live", "live", put(x), true, true, 3, writeLaw{Puts: 1}, "put"},
		{"put/tomb", "tomb", put(x), true, false, 3, writeLaw{Puts: 1}, "put"},
		{"put/oversize", "absent", put(big), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},
		{"put/full", "full", put(x), false, false, 0, writeLaw{Puts: 1, LogFull: 1}, ""},
		{"put/failed", "failed", put(x), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},

		{"delete/absent", "absent", del, true, false, 0, writeLaw{Deletes: 1, DeleteMisses: 1}, ""},
		{"delete/live", "live", del, true, true, 3, writeLaw{Deletes: 1}, "del"},
		{"delete/tomb", "tomb", del, true, false, 0, writeLaw{Deletes: 1, DeleteMisses: 1}, ""},
		{"delete/full", "full", del, false, false, 0, writeLaw{Deletes: 1, LogFull: 1}, ""},
		{"delete/failed", "failed", del, false, false, 0, writeLaw{Deletes: 1, WriteErrors: 1}, ""},

		{"putv/absent", "absent", putV(x, 3), true, false, 3, writeLaw{Puts: 1, VerWrites: 1}, "putv"},
		{"putv/live/older", "live", putV(x, 1), true, true, 2, writeLaw{Puts: 1, VerStale: 1}, ""},
		{"putv/live/equal", "live", putV(x, 2), true, true, 2, writeLaw{Puts: 1, VerStale: 1}, ""},
		{"putv/live/newer", "live", putV(x, 3), true, true, 3, writeLaw{Puts: 1, VerWrites: 1}, "putv"},
		{"putv/tomb/older", "tomb", putV(x, 1), true, false, 2, writeLaw{Puts: 1, VerStale: 1}, ""},
		{"putv/tomb/equal", "tomb", putV(x, 2), true, false, 2, writeLaw{Puts: 1, VerStale: 1}, ""},
		{"putv/tomb/newer", "tomb", putV(x, 3), true, false, 3, writeLaw{Puts: 1, VerWrites: 1}, "putv"},
		{"putv/oversize", "absent", putV(big, 3), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},
		// Staleness is judged before size: a duplicate is acked even
		// when it could never have been appended.
		{"putv/oversize/stale", "live", putV(big, 2), true, true, 2, writeLaw{Puts: 1, VerStale: 1}, ""},
		{"putv/full", "full", putV(x, 3), false, false, 0, writeLaw{Puts: 1, LogFull: 1}, ""},
		{"putv/failed", "failed", putV(x, 3), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},

		{"delv/absent", "absent", delV(3), true, false, 3, writeLaw{Deletes: 1, VerWrites: 1}, "delv"},
		{"delv/live/older", "live", delV(1), true, false, 2, writeLaw{Deletes: 1, VerStale: 1}, ""},
		{"delv/live/equal", "live", delV(2), true, false, 2, writeLaw{Deletes: 1, VerStale: 1}, ""},
		{"delv/live/newer", "live", delV(3), true, true, 3, writeLaw{Deletes: 1, VerWrites: 1}, "delv"},
		{"delv/tomb/older", "tomb", delV(1), true, false, 2, writeLaw{Deletes: 1, VerStale: 1}, ""},
		{"delv/tomb/equal", "tomb", delV(2), true, false, 2, writeLaw{Deletes: 1, VerStale: 1}, ""},
		{"delv/tomb/newer", "tomb", delV(3), true, false, 3, writeLaw{Deletes: 1, VerWrites: 1}, "delv"},
		{"delv/full", "full", delV(3), false, false, 0, writeLaw{Deletes: 1, LogFull: 1}, ""},
		{"delv/failed", "failed", delV(3), false, false, 0, writeLaw{Deletes: 1, WriteErrors: 1}, ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkWrite(t, row) })
	}
}

// TestVersionedWriteAtZeroRefused: native versions start at 1, so a
// version-carrying write at version 0 names no version at all. It must
// be refused loudly, never applied at 0 or acked as a duplicate.
func TestVersionedWriteAtZeroRefused(t *testing.T) {
	x := []byte("x")
	rows := []writeRow{
		{"putv/absent/zero", "absent", putV(x, 0), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},
		{"putv/live/zero", "live", putV(x, 0), false, false, 0, writeLaw{Puts: 1, WriteErrors: 1}, ""},
		{"delv/absent/zero", "absent", delV(0), false, false, 0, writeLaw{Deletes: 1, WriteErrors: 1}, ""},
		{"delv/tomb/zero", "tomb", delV(0), false, false, 0, writeLaw{Deletes: 1, WriteErrors: 1}, ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkWrite(t, row) })
	}
}

// checkWrite prepares row.state on a one-shard store, applies row.req
// through the wire entry point and checks everything the row pins.
func checkWrite(t *testing.T, row writeRow) {
	p := smallParams()
	p.Shards, p.LogBlocks = 1, 8
	w := newSW(4, p, 11, nil)
	defer w.rt.Shutdown()
	sh := w.kv.shards[0]
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		defer func() { done = true }()
		if !prepareKey(t, th, w.kv, row.state) {
			return
		}
		before, rec := writeLawOf(w.kv.Counters()), sh.m.flight.Recorded()
		r := w.kv.Apply(th, row.req)
		if r.OK != row.ok || r.Found != row.found || r.Ver != row.ver || (r.Err == "") != row.ok {
			t.Errorf("reply = %+v, want OK=%v Found=%v Ver=%d", r, row.ok, row.found, row.ver)
		}
		if got := writeLawOf(w.kv.Counters()).minus(before); got != row.law {
			t.Errorf("counter deltas = %+v, want %+v", got, row.law)
		}
		var kinds []string
		evs := sh.m.flight.Events()
		for _, ev := range evs[len(evs)-int(sh.m.flight.Recorded()-rec):] {
			switch ev.Kind {
			case "put", "del", "putv", "delv":
				kinds = append(kinds, ev.Kind)
			}
		}
		if got := strings.Join(kinds, ","); got != row.kind {
			t.Errorf("flight kinds = %q, want %q", got, row.kind)
		}
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished (a write reply never arrived)")
	}
	if sh.m.writesInFlight != 0 {
		t.Errorf("WritesInFlight = %d after the run, want 0", sh.m.writesInFlight)
	}
}

// prepareKey brings key "k" into state (see writeRow).
func prepareKey(t *testing.T, th *core.Thread, kv *Store, state string) bool {
	must := func(r WriteResult, what string) bool {
		if !r.OK {
			t.Errorf("setup %s: %+v", what, r)
		}
		return r.OK
	}
	switch state {
	case "absent":
		return true
	case "live":
		return must(kv.Put(th, "k", []byte("v1")), "put") && must(kv.Put(th, "k", []byte("v2")), "put")
	case "tomb":
		return must(kv.Put(th, "k", []byte("v1")), "put") && must(kv.Delete(th, "k"), "delete")
	case "full":
		if !must(kv.Put(th, "k", []byte("v1")), "put") || !must(kv.Put(th, "k", []byte("v2")), "put") {
			return false
		}
		// Four of these records fill a block to within a few bytes, so
		// the log holds no garbage worth compacting and simply runs out.
		// A last record pads the final block to its terminator byte, so
		// that no record at all fits after it.
		fill := make([]byte, 990)
		for i := 0; i < 1000; i++ {
			r := kv.Put(th, fmt.Sprintf("fill/%d", i), fill)
			if r.Err == "store: log region full" {
				sh := kv.shards[0]
				pad := sh.s.P.Disk.BlockSize - 1 - len(sh.open) - recHeader - len("pad")
				return pad < 0 || must(kv.Put(th, "pad", make([]byte, pad)), "pad")
			}
			if !must(r, "fill") {
				return false
			}
		}
		t.Error("setup: the log never filled")
		return false
	case "failed":
		if !must(kv.Put(th, "k", []byte("v1")), "put") {
			return false
		}
		kv.Disks()[0].InjectWriteFailures(1)
		if r := kv.Put(th, "boom", []byte("x")); r.OK {
			t.Errorf("setup: write riding a failed flush was acked: %+v", r)
			return false
		}
		return true
	}
	t.Fatalf("unknown key state %q", state)
	return false
}

// TestWriteArgSizes pins each write's kernel op name and billed argument
// size (24+k+v, 16+k, 32+k+v and 24+k): the request bills both, so a
// change to either moves every simulated number downstream.
func TestWriteArgSizes(t *testing.T) {
	val := []byte("value")
	for _, c := range []struct {
		a     writeArg
		op    string
		bytes int
	}{
		{writeArg{Op: recPut, Key: "key", Val: val}, "put", 24 + 3 + 5},
		{writeArg{Op: recDel, Key: "key"}, "delete", 16 + 3},
		{writeArg{Op: recPut, Versioned: true, Key: "key", Val: val, Ver: 7}, "putv", 32 + 3 + 5},
		{writeArg{Op: recDel, Versioned: true, Key: "key", Ver: 7}, "delv", 24 + 3},
	} {
		if got := c.a.op(); got != c.op {
			t.Errorf("%+v: op %q, want %q", c.a, got, c.op)
		}
		if got := c.a.MsgBytes(); got != c.bytes {
			t.Errorf("%+v: MsgBytes %d, want %d", c.a, got, c.bytes)
		}
	}
}
