package exp

import (
	"testing"

	"chanos/internal/dump"
	"chanos/internal/store"
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
	acked := store.Ledger{}
	var ackedPuts uint64

	// Cycle 0: a fresh quorum pair serves and accumulates state, then
	// the primary is killed; only the replica's platters survive.
	m, wl := kvWorld(cores, shards, clients, kvNumKeys, readPct, seed, nil)
	m.Attach(store.KVReplica(seed, false))
	kvPrefill(m, wl)
	ackedFleet(m, wl, acked, &ackedPuts)
	m.RT.RunFor(4_000_000)
	platters := m.Repls[0].KV.Platters()
	m.Shutdown()

	// Cycle 1: failover boot from the survivors, serve degraded, then
	// attach a fresh replica AT RUNTIME and dump while it heals.
	m2, wl2 := kvWorld(cores, shards, clients, kvNumKeys, readPct, seed+101, platters)
	defer m2.Shutdown()
	ackedFleet(m2, wl2, acked, &ackedPuts)
	m2.RT.RunFor(2_000_000)
	m2.Attach(store.KVReplica(seed+101, false))
	m2.RT.RunFor(200_000)

	midHeal := !m2.KV.ReplCaughtUp()
	d := e17Collector(m2, clients, seed+101).Snapshot("manual: E17 mid-heal snapshot")
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("mid-heal dump invalid: %v", bad)
	}
	md := d.Machines[0]
	if len(md.Replicas) != 1 || len(md.Replicas[0]) != shards {
		t.Fatalf("replica captures %d, want one of %d shards", len(md.Replicas), shards)
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
	for _, sh := range md.Store {
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
