package cluster

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// sortedKeys: audits iterate the acked ledger on a live engine, so the
// order must be deterministic, never raw map order.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// boot3 builds a 3-node cluster with rf replicas per node and the
// keyspace split in thirds, and drives it until every node's quorum
// has formed.
func boot3(t *testing.T, rf int, keys []string, seed uint64) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	c := New(eng, Params{
		Nodes:  3,
		Splits: store.EvenSplits(keys, 3),
		RF:     rf,
		Cores:  8,
		Seed:   seed,
		Store:  store.Params{Shards: 2, CacheBlocks: 8, FlushCycles: 20_000},
	})
	for step := 0; step < 2000; step++ {
		c.RunFor(100_000)
		if c.Ready() {
			return c
		}
	}
	t.Fatal("cluster quorums never formed")
	return nil
}

// prefill writes each key once through its owning node's store (seed
// state below the wire; the wire paths are what the tests then drive).
func prefill(t *testing.T, c *Cluster, keys []string, val []byte) {
	t.Helper()
	done := 0
	for _, n := range c.Nodes {
		n := n
		var mine []string
		for _, k := range keys {
			if n.smap.NodeFor(k) == n.ID {
				mine = append(mine, k)
			}
		}
		n.RT.Boot(fmt.Sprintf("prefill.%d", n.ID), func(th *core.Thread) {
			for _, k := range mine {
				if r := n.KV.Put(th, k, val); !r.OK {
					t.Errorf("prefill %s: %s", k, r.Err)
				}
			}
			done++
		})
	}
	for step := 0; step < 4000 && done < len(c.Nodes); step++ {
		c.RunFor(100_000)
	}
	if done < len(c.Nodes) {
		t.Fatal("prefill never finished")
	}
}

// TestClusterRoutingAndQuorum: requests reach their owners through the
// cached map, a misrouted request bounces Moved with the right owner,
// and every node's writes ride its own replica quorum.
func TestClusterRoutingAndQuorum(t *testing.T) {
	keys := store.Keyspace(120)
	c := boot3(t, 1, keys, 11)
	defer c.Shutdown()

	pool := c.NewPool(PoolParams{Clients: 12, Keys: keys, ReadPct: 40,
		ValBytes: 64, ThinkCycles: 4000, Seed: 23})
	for step := 0; step < 300; step++ {
		c.RunFor(100_000)
	}
	if pool.Ops < 100 {
		t.Fatalf("fleet barely ran: ops=%d failed=%d lost=%d", pool.Ops, pool.Failed, pool.Lost)
	}
	if pool.Lost != 0 || pool.Errs != 0 {
		t.Fatalf("stable cluster lost requests: lost=%d errs=%d", pool.Lost, pool.Errs)
	}
	if pool.Moved != 0 {
		t.Fatalf("correctly-mapped fleet was redirected %d times", pool.Moved)
	}

	// A deliberately misrouted request: key owned by node 0 sent to
	// node 2 must bounce Moved{Owner: 0} without touching the store.
	var moved *store.KVResponse
	n2 := c.Nodes[2]
	n2.NW.Dial(n2.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) {
			req := store.KVRequest{Op: store.WGet, Key: keys[0]}
			ep.Send(req, req.WireBytes())
		},
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			if r, ok := payload.(store.KVResponse); ok {
				moved = &r
			}
			ep.Close()
		},
	})
	for step := 0; step < 100 && moved == nil; step++ {
		c.RunFor(100_000)
	}
	if moved == nil || !moved.Moved || moved.Owner != 0 {
		t.Fatalf("misrouted GET did not bounce correctly: %+v", moved)
	}

	// Every node acked writes under its own quorum.
	for _, n := range c.Nodes {
		kc := n.KV.Counters()
		if kc.AckedQuorum == 0 && kc.AckedWrites > 0 {
			t.Errorf("node %d acked %d writes, none at quorum", n.ID, kc.AckedWrites)
		}
	}
}

// TestUnknownWireOpIsRefused: a request whose op is outside the defined
// set (the zero op, and one past the last) is routed by its key like any
// other. The key's owner answers it with the store's "unknown wire op"
// error and goes on serving the connection; another node bounces it
// Moved to the owner.
func TestUnknownWireOpIsRefused(t *testing.T) {
	keys := store.Keyspace(30)
	c := boot3(t, 1, keys, 17)
	defer c.Shutdown()
	key := keys[0]
	owner := c.Map(0).NodeFor(key)
	other := (owner + 1) % len(c.Nodes)
	bad := []store.KVRequest{{Op: 0, Seq: 1, Key: key}, {Op: store.WMapSet + 1, Seq: 2, Key: key}}

	// exchange sends reqs one at a time on a fresh connection to node id
	// and returns the responses.
	exchange := func(id int, reqs []store.KVRequest) []store.KVResponse {
		var got []store.KVResponse
		send := func(ep *net.Endpoint) { ep.Send(reqs[len(got)], reqs[len(got)].WireBytes()) }
		n := c.Nodes[id]
		n.NW.Dial(n.Port, net.EndpointHooks{
			OnOpen: send,
			OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
				got = append(got, payload.(store.KVResponse))
				if len(got) < len(reqs) {
					send(ep)
				} else {
					ep.Close()
				}
			},
		})
		for step := 0; step < 100 && len(got) < len(reqs); step++ {
			c.RunFor(100_000)
		}
		if len(got) < len(reqs) {
			t.Fatalf("node %d answered %d of %d requests", id, len(got), len(reqs))
		}
		return got
	}

	got := exchange(owner, append(slices.Clone(bad), store.KVRequest{Op: store.WGet, Seq: 3, Key: key}))
	for i, r := range got[:len(bad)] {
		if r.OK || r.Moved || r.Err != "store: unknown wire op" {
			t.Errorf("owner answered op %d with %+v, want Err %q", bad[i].Op, r, "store: unknown wire op")
		}
	}
	if r := got[len(bad)]; !r.OK {
		t.Errorf("owner refused a GET after the unknown ops: %+v", r)
	}
	for i, r := range exchange(other, bad) {
		if !r.Moved || r.Owner != owner {
			t.Errorf("node %d answered op %d with %+v, want Moved to node %d", other, bad[i].Op, r, owner)
		}
	}
}

// TestClusterToleratesMinorityReplicaKill: with rf=2, killing one of a
// node's replica machines must not stop the node acking writes (the
// majority rule), and the loss shows up as a tolerated detach.
func TestClusterToleratesMinorityReplicaKill(t *testing.T) {
	keys := store.Keyspace(90)
	c := boot3(t, 2, keys, 31)
	defer c.Shutdown()

	pool := c.NewPool(PoolParams{Clients: 9, Keys: keys, ReadPct: 20,
		ValBytes: 64, ThinkCycles: 4000, Seed: 7})
	for step := 0; step < 150; step++ {
		c.RunFor(100_000)
	}
	before := pool.Ops
	c.Nodes[1].Repls[0].Shutdown()
	// Detection is bounded by the wire's backed-off RTO horizon
	// (~57M cycles at the defaults); drive past it.
	for step := 0; step < 800; step++ {
		c.RunFor(100_000)
	}
	kc := c.Nodes[1].KV.Counters()
	if kc.ReplTolerated == 0 {
		t.Fatalf("minority kill was not tolerated: %+v", kc)
	}
	if pool.Ops <= before {
		t.Fatalf("fleet stopped completing after a minority replica kill")
	}
	if pool.Lost != 0 || pool.Errs != 0 {
		t.Fatalf("minority kill lost requests: lost=%d errs=%d", pool.Lost, pool.Errs)
	}
}

// TestMigrationMovesRangeUnderLoad: a live migration under client load
// completes, flips the map everywhere, redirects stale clients, and
// loses nothing — every acked PUT readable from the new owner at >=
// its acked version.
func TestMigrationMovesRangeUnderLoad(t *testing.T) {
	keys := store.Keyspace(120)
	c := boot3(t, 1, keys, 43)
	defer c.Shutdown()
	prefill(t, c, keys, []byte("seed"))

	pool := c.NewPool(PoolParams{Clients: 12, Keys: keys, ReadPct: 30,
		ValBytes: 64, ThinkCycles: 4000, Seed: 5})
	c.RunFor(2_000_000)

	var rep *MigrationReport
	c.Migrate(1, 2, func(r MigrationReport) { rep = &r })
	for step := 0; step < 3000 && rep == nil; step++ {
		c.RunFor(100_000)
	}
	if rep == nil {
		t.Fatal("migration never completed")
	}
	if rep.Aborted {
		t.Fatalf("migration aborted: %+v", rep)
	}
	if rep.Copied == 0 {
		t.Fatalf("migration copied nothing: %+v", rep)
	}
	for _, n := range c.Nodes {
		if n.smap.Version != 2 {
			t.Errorf("node %d map still at version %d", n.ID, n.smap.Version)
		}
	}
	if got := c.Nodes[0].smap.NodeFor(keys[len(keys)/2]); got != 2 {
		t.Fatalf("migrated range owned by node %d, want 2", got)
	}

	// Serve a while longer under the new map, then audit every acked
	// PUT against the owner the final map names.
	for step := 0; step < 200; step++ {
		c.RunFor(100_000)
	}
	if pool.Lost != 0 || pool.Errs != 0 {
		t.Fatalf("migration lost requests: lost=%d errs=%d", pool.Lost, pool.Errs)
	}
	fm := c.Nodes[0].smap
	audited := false
	lost := 0
	// Sorted order: the audit's Gets consume engine events while the
	// fleet is live, and map order would make the run nondeterministic.
	c.Nodes[0].RT.Boot("audit", func(th *core.Thread) {
		for _, key := range sortedKeys(pool.AckedPuts) {
			ver := pool.AckedPuts[key]
			g := c.Nodes[fm.NodeFor(key)].KV.Get(th, key)
			if !g.Found || g.Ver < ver {
				lost++
				t.Errorf("acked %s@%d not at its owner: %+v", key, ver, g)
			}
		}
		audited = true
	})
	for step := 0; step < 400 && !audited; step++ {
		c.RunFor(100_000)
	}
	if !audited {
		t.Fatal("audit never finished")
	}
	if lost != 0 {
		t.Fatalf("%d acked writes lost across the migration", lost)
	}
}

// TestMigrationKillSourceMidStream: the source machine dies while the
// copy sweep is still streaming. The map never flipped, so the range's
// acked writes must all be on the source's replica platters; clients
// see bounded failures, not hangs.
func TestMigrationKillSourceMidStream(t *testing.T) {
	keys := store.Keyspace(240)
	c := boot3(t, 1, keys, 59)
	defer c.Shutdown()
	prefill(t, c, keys, []byte("seed"))

	pool := c.NewPool(PoolParams{Clients: 9, Keys: keys, ReadPct: 20,
		ValBytes: 64, ThinkCycles: 6000, Seed: 13})
	c.RunFor(2_000_000)

	src := c.Nodes[1]
	c.Migrate(1, 2, nil)
	// Drive a sliver: enough for the sweep to start, not finish.
	for step := 0; step < 20 && (src.mig == nil || !src.mig.dual); step++ {
		c.RunFor(50_000)
	}
	c.RunFor(500_000)
	if src.mig == nil || src.mig.done {
		t.Fatal("migration finished before the kill; grow the keyspace")
	}

	// The kill: snapshot the source's replica platters (the survivors),
	// then destroy the source machine.
	replica := src.Repls[0].KV
	platters := replica.Platters()
	acked := make(map[string]uint64)
	start, end := c.Nodes[0].smap.Range(1)
	for key, ver := range pool.AckedPuts {
		if key >= start && key < end {
			acked[key] = ver
		}
	}
	src.RT.Shutdown()

	// The cluster must keep running: other ranges serve, clients of the
	// dead node exhaust their bounded retries (the backed-off RTO
	// horizon, ~57M cycles) without hanging.
	for step := 0; step < 800; step++ {
		c.RunFor(100_000)
	}
	for _, n := range []*Node{c.Nodes[0], c.Nodes[2]} {
		if n.smap.Version != 1 {
			t.Errorf("node %d installed a flip that never committed (version %d)", n.ID, n.smap.Version)
		}
	}
	if pool.Failed == 0 {
		t.Error("no client ever failed against the dead node — kill not observed")
	}

	a := store.Audit(8, 1, replica.P, platters, acked)
	if a.Lost != 0 {
		t.Fatalf("source kill mid-migration lost %d acked writes (%d survived)", a.Lost, a.Survived)
	}
	if a.Survived == 0 {
		t.Fatal("audit checked nothing — no acked writes in the migrating range")
	}
}

// TestMigrationKillDestBeforeFlip: the destination dies before the map
// flips. The migration must abort — the source keeps owning the range,
// the map stays put, and every acked write is still served.
func TestMigrationKillDestBeforeFlip(t *testing.T) {
	keys := store.Keyspace(240)
	c := boot3(t, 1, keys, 71)
	defer c.Shutdown()
	prefill(t, c, keys, []byte("seed"))

	pool := c.NewPool(PoolParams{Clients: 9, Keys: keys, ReadPct: 20,
		ValBytes: 64, ThinkCycles: 6000, Seed: 17})
	c.RunFor(2_000_000)

	src, dst := c.Nodes[1], c.Nodes[2]
	var rep *MigrationReport
	c.Migrate(1, 2, func(r MigrationReport) { rep = &r })
	for step := 0; step < 20 && (src.mig == nil || !src.mig.dual); step++ {
		c.RunFor(50_000)
	}
	c.RunFor(500_000)
	if src.mig == nil || src.mig.done {
		t.Fatal("migration finished before the kill; grow the keyspace")
	}
	for _, rm := range dst.Repls {
		rm.Shutdown()
	}
	dst.RT.Shutdown()

	for step := 0; step < 3000 && rep == nil; step++ {
		c.RunFor(100_000)
	}
	if rep == nil {
		t.Fatal("migration never reported after the destination died")
	}
	if !rep.Aborted {
		t.Fatalf("migration should have aborted: %+v", rep)
	}
	if src.smap.Version != 1 || c.Nodes[0].smap.Version != 1 {
		t.Fatal("aborted migration changed the map")
	}
	if src.mig != nil {
		t.Fatal("aborted migration left its record installed")
	}

	// The source still owns and serves the range: audit every acked PUT
	// in it directly against the source store.
	audited := false
	lost := 0
	start, end := src.smap.Range(1)
	src.RT.Boot("audit", func(th *core.Thread) {
		for _, key := range sortedKeys(pool.AckedPuts) {
			if key < start || (end != "" && key >= end) {
				continue
			}
			ver := pool.AckedPuts[key]
			g := src.KV.Get(th, key)
			if !g.Found || g.Ver < ver {
				lost++
				t.Errorf("acked %s@%d lost after dest kill: %+v", key, ver, g)
			}
		}
		audited = true
	})
	for step := 0; step < 400 && !audited; step++ {
		c.RunFor(100_000)
	}
	if !audited {
		t.Fatal("audit never finished")
	}
	if lost != 0 {
		t.Fatalf("%d acked writes lost after the destination died", lost)
	}
}

// TestMigrationDuplicateDeliveryAppliesOnce: version-carrying writes —
// the only traffic a migration sends — are idempotent: a duplicate
// delivery acknowledges without re-applying, an older version never
// overwrites a newer one, and native writes continue the version
// sequence above whatever migration installed.
func TestMigrationDuplicateDeliveryAppliesOnce(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Params{Nodes: 1, Cores: 8, Seed: 3,
		Store: store.Params{Shards: 2, CacheBlocks: 8, FlushCycles: 20_000}})
	defer c.Shutdown()
	n := c.Nodes[0]

	done := false
	n.RT.Boot("dup", func(th *core.Thread) {
		put := store.KVRequest{Op: store.WPutV, Key: "k", Val: []byte("v5"), Ver: 5}
		if r := n.KV.Apply(th, put); !r.OK || r.Ver != 5 {
			t.Errorf("first PUTV: %+v", r)
		}
		if r := n.KV.Apply(th, put); !r.OK || r.Ver != 5 {
			t.Errorf("duplicate PUTV: %+v", r)
		}
		if r := n.KV.Apply(th, store.KVRequest{Op: store.WPutV, Key: "k", Val: []byte("old"), Ver: 3}); !r.OK {
			t.Errorf("stale PUTV should ack: %+v", r)
		}
		if g := n.KV.Get(th, "k"); !g.Found || g.Ver != 5 || string(g.Val) != "v5" {
			t.Errorf("value after duplicates: %+v", g)
		}
		kc := n.KV.Counters()
		if kc.VerWrites != 1 || kc.VerStale != 2 {
			t.Errorf("applied %d, deduped %d; want 1 applied, 2 deduped", kc.VerWrites, kc.VerStale)
		}
		// Tombstones dedupe the same way, and native writes continue the
		// version sequence above the migrated floor.
		del := store.KVRequest{Op: store.WDelV, Key: "k", Ver: 6}
		if r := n.KV.Apply(th, del); !r.OK {
			t.Errorf("DELV: %+v", r)
		}
		if r := n.KV.Apply(th, del); !r.OK {
			t.Errorf("duplicate DELV: %+v", r)
		}
		if g := n.KV.Get(th, "k"); g.Found {
			t.Errorf("key alive after versioned delete: %+v", g)
		}
		if r := n.KV.Put(th, "k", []byte("new")); !r.OK || r.Ver != 7 {
			t.Errorf("native PUT after migration floor: %+v", r)
		}
		done = true
	})
	for step := 0; step < 2000 && !done; step++ {
		c.RunFor(100_000)
	}
	if !done {
		t.Fatal("scenario never finished")
	}
}
