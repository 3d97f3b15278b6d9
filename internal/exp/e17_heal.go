package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/store"
)

func init() {
	register("E17", "replication lifecycle: quorum healing after failover, bounded-lag replica reads", e17Heal)
}

// e17Collector points a machine core-dump collector at an E17 machine
// (and its replica, once attached). E17 worlds boot through the
// experiment harness, not the kvload scenario, so their dumps validate
// and inspect but do not replay — the scenario stamp says so.
func e17Collector(m *store.Machine, clients int, seed uint64) *dump.Collector {
	return &dump.Collector{
		Eng: m.M.Eng, Nodes: []*store.Machine{m}, Seed: seed,
		Config: dump.Config{
			Scenario: "e17-heal", Cores: m.M.NumCores(),
			Shards: m.KV.P.Shards, Clients: clients,
			Keys: kvNumKeys, ValBytes: kvValBytes,
		},
	}
}

// e17Cycle is one measured kill → failover → re-attach → heal cycle.
type e17Cycle struct {
	attach      string // "boot" or "runtime"
	quorum      bool   // ReplCaughtUp at the kill instant
	healMs      float64
	syncRecords uint64
	heals       uint64
	ackedPuts   uint64
	tracked     int
	survived    int
	lost        int

	// The live STATS scrape issued over the wire while the cycle heals.
	scraped    bool   // a snapshot came back and parsed
	scrapeSeq  uint64 // its sequence number
	scrapeSvcs int    // services it carried
	scrapeBad  int    // conservation-law violations in it
	midHeal    bool   // quorum was NOT yet restored when it was taken
}

// e17HealCycles runs the closed loop: cycle 0 boots a fresh quorum
// pair; every later cycle boots the store from the previous replica's
// platters (failover), serves degraded for a while, attaches a fresh
// replica machine AT RUNTIME, heals, and is killed again — only its
// replica's platters carry to the next cycle. The audit after each kill
// checks every PUT any client was ever acked against the surviving
// platters: lost must be 0, every cycle.
func e17HealCycles(o Options, cycles int, window sim.Time) []e17Cycle {
	const (
		cores   = 16
		shards  = 4
		clients = 64
		readPct = 50
	)
	acked := store.Ledger{}
	var ackedPuts uint64
	var platters []map[int][]byte
	var out []e17Cycle

	for c := 0; c < cycles; c++ {
		seed := o.seed() + uint64(c)*101
		// One life of the heal cycle: a primary serving the KV wire
		// workload, recovered from the previous life's replica platters
		// after cycle 0, with a fresh replica (m.Repls[0]) attached.
		m, wl := kvWorld(cores, shards, clients, kvNumKeys, readPct, seed, platters)
		kv := m.KV
		cy := e17Cycle{attach: "runtime"}
		if c == 0 {
			cy.attach = "boot"
			m.Attach(store.KVReplica(seed, false))
			kvPrefill(m, wl)
			ackedFleet(m, wl, acked, &ackedPuts)
		} else {
			// The failed-over store is live and serving degraded before
			// the fresh replica joins.
			ackedFleet(m, wl, acked, &ackedPuts)
			m.RT.RunFor(2_000_000)
			m.Attach(store.KVReplica(seed, false))
		}
		healBase := m.M.Eng.Now()
		// Scrape the serving machine over the wire while it heals: the
		// snapshot must come back consistent (conservation laws hold) even
		// though the bootstrap stream is rewriting shard state underneath.
		if snap := m.Scrape(); snap != nil {
			cy.scraped = true
			cy.scrapeSeq = snap.Seq
			cy.scrapeSvcs = len(snap.Services)
			cy.scrapeBad = len(snap.Conservation())
			cy.midHeal = !kv.ReplCaughtUp()
			o.publishSnapshot(snap)
			if cy.scrapeBad > 0 {
				o.dumpInvariant(e17Collector(m, clients, seed),
					"invariant: E17 mid-heal STATS scrape violated conservation laws")
			}
		}
		healed := false
		for step := 0; step < 4000; step++ {
			m.RT.RunFor(100_000)
			if kv.ReplCaughtUp() {
				healed = true
				break
			}
		}
		cy.healMs = m.M.Seconds(m.M.Eng.Now()-healBase) * 1e3
		kc := kv.Counters()
		cy.syncRecords = kc.ReplSyncRecords
		cy.heals = kc.ReplHeals
		if healed {
			m.RT.RunFor(window) // serve under the healed quorum
		}
		cy.quorum = kv.ReplCaughtUp()
		cy.ackedPuts = ackedPuts
		cy.tracked = len(acked)

		// The kill: the primary machine is destroyed; only the replica's
		// platters survive into the next cycle.
		replica := m.Repls[0].KV
		platters = replica.Platters()
		m.Shutdown()

		// Audit the survivors against everything ever acked.
		a := store.Audit(cores, o.seed()+uint64(c)*7+1, replica.P, platters, acked)
		cy.survived, cy.lost = a.Survived, a.Lost
		out = append(out, cy)
	}
	return out
}

// e17ReadResult is one read-routing mode of the scaling sweep.
type e17ReadResult struct {
	getsPerSec float64
	opsPerSec  float64
	p99Us      float64
	lagged     uint64
	waits      uint64
}

// e17Reads measures replica reads as read capacity: the same quorum
// pair, the same primary client fleet, with and without a second fleet
// reading from the replica's bounded-lag port. Cores per machine are
// fixed; the delta is the replica's otherwise-idle index doing work.
func e17Reads(o Options, clients int, window sim.Time, replicaReads bool) e17ReadResult {
	const (
		cores   = 8
		shards  = 8
		readPct = 90
	)
	seed := o.seed()
	m, wl := kvWorld(cores, shards, clients, kvNumKeys, readPct, seed, nil)
	defer m.Shutdown()
	rm := m.Attach(store.KVReplica(seed, true))
	kvPrefill(m, wl)

	// Primary fleet: the mixed workload, GET responses counted.
	var getsP uint64
	pool := net.NewClientPool(m.NW, wl.Fleet(store.KVPort, func(c, _ int, payload core.Msg) {
		if resp, ok := payload.(store.KVResponse); ok && resp.OK && wl.Outstanding(c).Op == store.WGet {
			getsP++
		}
	}))

	// Replica fleet: GET-only, same keyspace, served from the replica's
	// version-correct index under the staleness bound.
	var getsR uint64
	var rpool *net.ClientPool
	if replicaReads {
		rwl := store.NewWorkload(seed+5, clients, kvNumKeys, 100, kvValBytes)
		rpool = net.NewClientPool(rm.NW, rwl.Fleet(store.ReadPort, func(_, _ int, payload core.Msg) {
			if resp, ok := payload.(store.KVResponse); ok && resp.OK {
				getsR++
			}
		}))
	}

	m.RT.RunFor(window)
	ops := pool.Responses
	var lat stats.Histogram
	lat.Merge(&pool.Lat)
	if rpool != nil {
		ops += rpool.Responses
		lat.Merge(&rpool.Lat)
	}
	rc := rm.KV.Counters()
	return e17ReadResult{
		getsPerSec: float64(getsP+getsR) / m.M.Seconds(window),
		opsPerSec:  float64(ops) / m.M.Seconds(window),
		p99Us:      m.M.Seconds(lat.Percentile(99)) * 1e6,
		lagged:     rc.RefusedSyncing + rc.RefusedLag,
		waits:      rc.ReplicaWaits,
	}
}

func e17Heal(o Options) []*stats.Table {
	cycles := 3
	window := sim.Time(8_000_000)
	clients := 96
	readWindow := sim.Time(10_000_000)
	if o.Quick {
		window = 3_000_000
		clients = 64
		readWindow = 4_000_000
	}

	hb := stats.NewTable("E17 / quorum healing: kill -> failover -> re-attach -> heal cycles",
		"cycle", "attach", "heal (ms)", "sync records", "shard heals", "acked puts", "tracked keys", "survived", "lost", "quorum")
	sb := stats.NewTable("E17c / live STATS scrape: one wire request against the healing machine",
		"cycle", "scraped", "snapshot seq", "services", "conservation violations", "mid-heal")
	for i, cy := range e17HealCycles(o, cycles, window) {
		q := "no"
		if cy.quorum {
			q = "yes"
		}
		hb.AddRow(fmt.Sprint(i+1), cy.attach, fmt.Sprintf("%.2f", cy.healMs), fmt.Sprint(cy.syncRecords),
			fmt.Sprint(cy.heals), fmt.Sprint(cy.ackedPuts), fmt.Sprint(cy.tracked),
			fmt.Sprint(cy.survived), fmt.Sprint(cy.lost), q)
		sb.AddRow(fmt.Sprint(i+1), yn(cy.scraped), fmt.Sprint(cy.scrapeSeq),
			fmt.Sprint(cy.scrapeSvcs), fmt.Sprint(cy.scrapeBad), yn(cy.midHeal))
	}
	hb.Note("each cycle kills the primary machine; the next boots from the replica's platters alone and re-attaches a FRESH replica at runtime")
	hb.Note("contract: quorum must read yes and lost must be 0 on every row — healing restores full durability, losing nothing ever acked")
	sb.Note("the scrape is a normal wire request (STATS verb) from a fresh client endpoint; the snapshot is built in zero simulated cycles")
	sb.Note("contract: scraped yes and violations 0 on every row — the metric plane stays balanced while replication rewrites the shards")

	rb := stats.NewTable("E17b / replica reads: GET throughput at fixed per-machine cores (90% reads)",
		"mode", "clients", "GETs/sec", "ops/sec", "p99 latency (us)", "lag-refused", "durability waits", "x GETs vs primary-only")
	base := e17Reads(o, clients, readWindow, false)
	repl := e17Reads(o, clients, readWindow, true)
	ratio := 0.0
	if base.getsPerSec > 0 {
		ratio = repl.getsPerSec / base.getsPerSec
	}
	rb.AddRow("primary-only", fmt.Sprint(clients), stats.F(base.getsPerSec), stats.F(base.opsPerSec),
		stats.F(base.p99Us), fmt.Sprint(base.lagged), fmt.Sprint(base.waits), "1.00")
	rb.AddRow("replica-reads", fmt.Sprint(clients*2), stats.F(repl.getsPerSec), stats.F(repl.opsPerSec),
		stats.F(repl.p99Us), fmt.Sprint(repl.lagged), fmt.Sprint(repl.waits), fmt.Sprintf("%.2f", ratio))
	rb.Note("replica-reads adds a GET-only fleet on the replica's bounded-staleness port; the primary fleet is unchanged")
	rb.Note("lag-refused GETs hit the staleness bound (ReplicaLagBound) and would retry at the primary; durability waits parked for the replica's group commit")
	return []*stats.Table{hb, sb, rb}
}

// yn renders a bool as a yes/no table cell.
func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
