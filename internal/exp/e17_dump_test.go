package exp

import (
	"testing"

	"chanos/internal/dump"
)

// TestE17MidHealDump captures a machine core dump in the middle of an
// E17 heal cycle — a failed-over primary serving live traffic while a
// freshly attached replica machine bootstraps underneath — and checks
// it is structurally valid with both machines' store sections present.
// This is the hardest instant to snapshot consistently: the sync
// stream is rewriting replica shard state between every pair of
// events.
func TestE17MidHealDump(t *testing.T) {
	const (
		cores   = 16
		shards  = 4
		clients = 32
		readPct = 50
		seed    = 42
	)
	acked := make(map[string]uint64)
	var ackedPuts uint64

	// Cycle 0: a fresh quorum pair serves and accumulates state, then
	// the primary is killed; only the replica's platters survive.
	ew := e17Boot(cores, shards, clients, readPct, seed, nil)
	ew.m.Attach(kvReplica(seed, 0))
	kvPrefill(ew.w, ew.wl, ew.m.KV)
	ew.e17Pool(acked, &ackedPuts)
	ew.w.rt.RunFor(4_000_000)
	platters := ew.m.Repls[0].KV.Platters()
	ew.m.Shutdown()

	// Cycle 1: failover boot from the survivors, serve degraded, then
	// attach a fresh replica AT RUNTIME and dump while it heals.
	ew2 := e17Boot(cores, shards, clients, readPct, seed+101, platters)
	defer ew2.m.Shutdown()
	ew2.e17Pool(acked, &ackedPuts)
	ew2.w.rt.RunFor(2_000_000)
	ew2.m.Attach(kvReplica(seed+101, 0))
	ew2.w.rt.RunFor(200_000)

	midHeal := !ew2.m.KV.ReplCaughtUp()
	d := ew2.collector(seed + 101).Snapshot("manual: E17 mid-heal snapshot")
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("mid-heal dump invalid: %v", bad)
	}
	if len(d.Replica) != shards {
		t.Fatalf("replica section has %d shards, want %d", len(d.Replica), shards)
	}
	if d.Config.Scenario != "e17-heal" {
		t.Fatalf("scenario stamp %q", d.Config.Scenario)
	}
	if !midHeal {
		t.Log("heal completed before the snapshot; lifecycle assertions skipped")
		return
	}
	// Mid-heal the primary must not be at quorum: shards are syncing
	// (2) or still failed-over (1).
	for _, sh := range d.Store {
		if sh.Lifecycle == 3 {
			t.Fatalf("store shard %d already at quorum in a mid-heal dump", sh.Shard)
		}
	}
	// The dump round-trips.
	d2, err := dump.Decode(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Equal(d, d2) {
		t.Fatalf("round-trip diff: %v", dump.Diff(d, d2))
	}
}
