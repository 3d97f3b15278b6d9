// E18 — the cluster fabric: one key-value service spread over N full
// machines (each with its own replica group), routed by a versioned
// shard map, surviving a minority replica kill without losing a single
// acked write, and migrating a live key range between nodes under
// client load. The paper's recursion made explicit: the same
// share-nothing, message-passing structure that organised cores into a
// machine organises machines into a cluster — and the same experiment
// discipline (acked-write audits, conservation-checked telemetry)
// applies one level up.
package exp

import (
	"fmt"
	"strings"

	"chanos/internal/cluster"
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/stats"
	"chanos/internal/store"
)

func init() {
	register("E18", "cluster fabric: shard-map routing, majority quorums over machines, live shard migration", e18Cluster)
}

const (
	e18Nodes    = 3
	e18RF       = 2
	e18ValBytes = 128
)

// e18Phase is one measured phase of the cluster's life.
type e18Phase struct {
	name      string
	ops       uint64 // requests completed during the phase
	opsPerSec float64
	moved     uint64 // redirects the fleet followed (cumulative)
	failed    uint64 // bounded connect/retry failures (cumulative)
	lost      uint64 // requests abandoned (cumulative)
	errs      uint64 // store errors (cumulative)
	tolerated uint64 // minority replica losses survived (cluster-wide)
	mapVer    uint64 // node 0's installed map version
	audLost   int    // acked PUTs unreadable at their mapped owner
	audKeys   int    // acked PUTs audited
}

func e18Cluster(o Options) []*stats.Table {
	numKeys := 180
	clients := 18
	window := sim.Time(8_000_000)
	if o.Quick {
		numKeys = 120
		clients = 12
		window = 3_000_000
	}
	seed := o.seed()

	// One cluster lives through all three phases: 3 serving nodes, each
	// with 2 replica machines — 9 machines on one engine, one clock.
	c, pool := e18Boot(e18Nodes, numKeys, clients, seed, seed)
	defer c.Shutdown()

	tolerated := func() uint64 {
		var tot uint64
		for _, n := range c.Nodes {
			tot += n.KV.Counters().ReplTolerated
		}
		return tot
	}
	secs := func(cy sim.Time) float64 { return c.Nodes[0].M.Seconds(cy) }
	measure := func(p *e18Phase, before uint64, cy sim.Time) {
		p.ops = pool.Ops - before
		p.opsPerSec = float64(p.ops) / secs(cy)
		p.moved = pool.Moved
		p.failed = pool.Failed
		p.lost = pool.Lost
		p.errs = pool.Errs
		p.tolerated = tolerated()
		p.mapVer = c.Map(0).Version
		p.audKeys, p.audLost = e18Audit(c, pool)
	}

	// Phase 1: the healthy cluster under load.
	base := e18Phase{name: "baseline"}
	ops0 := pool.Ops
	e18Run(c, window)
	measure(&base, ops0, window)

	// Phase 2: kill one of node 1's two replica machines. Detection is
	// the wire's backed-off RTO horizon (~57M cycles at the defaults);
	// the majority rule keeps the node acking throughout.
	kill := e18Phase{name: "minority-kill"}
	ops0 = pool.Ops
	c.Nodes[1].Repls[0].Shutdown()
	killWindow := sim.Time(75_000_000) + window
	e18Run(c, killWindow)
	measure(&kill, ops0, killWindow)

	// Phase 3: migrate the degraded node's range to node 2, live, under
	// the same fleet. The flip bumps the map; stale clients bounce one
	// redirect and refresh.
	mig := e18Phase{name: "migration"}
	ops0 = pool.Ops
	var rep *cluster.MigrationReport
	c.Migrate(1, 2, func(r cluster.MigrationReport) { rep = &r })
	migDrove := sim.Time(0)
	for ; migDrove < 400_000_000 && rep == nil; migDrove += 100_000 {
		c.RunFor(100_000)
	}
	e18Run(c, window)
	measure(&mig, ops0, migDrove+window)

	// A live STATS scrape of the migration destination closes the loop:
	// the telemetry plane speaks wire like everything else, one level up
	// or not.
	if snap := c.Nodes[2].Scrape(); snap != nil {
		o.publishSnapshot(snap)
	}

	pt := stats.NewTable("E18 / cluster fabric under load: baseline -> minority replica kill -> live migration",
		"phase", "ops", "ops/sec", "moved", "failed", "lost", "errs", "tolerated", "map ver", "audit keys", "audit lost")
	for _, p := range []e18Phase{base, kill, mig} {
		pt.AddRow(p.name, fmt.Sprint(p.ops), stats.F(p.opsPerSec), fmt.Sprint(p.moved),
			fmt.Sprint(p.failed), fmt.Sprint(p.lost), fmt.Sprint(p.errs),
			fmt.Sprint(p.tolerated), fmt.Sprint(p.mapVer), fmt.Sprint(p.audKeys), fmt.Sprint(p.audLost))
	}
	pt.Note("3 serving nodes x (1 primary + 2 replicas) = 9 machines on one engine; the fleet routes by a cached shard map and follows Moved redirects")
	pt.Note("contract: lost, errs and audit lost are 0 on every row; minority-kill tolerates >= 1 replica loss; migration advances the map version")
	if rep != nil && rep.Aborted {
		pt.Note("WARNING: the migration aborted — the destination was unreachable")
	}

	nt := stats.NewTable("E18b / per-node lifecycle after the run",
		"node", "lifecycle", "replicas", "acked quorum", "tolerated", "moved issued", "map installs", "map ver")
	for _, n := range c.Nodes {
		kc := n.KV.Counters()
		nt.AddRow(fmt.Sprint(n.ID), n.KV.Lifecycle(), e18Replicas(n.KV),
			fmt.Sprint(kc.AckedQuorum), fmt.Sprint(kc.ReplTolerated),
			fmt.Sprint(n.Moved), fmt.Sprint(n.MapInstalls), fmt.Sprint(c.Map(n.ID).Version))
	}
	nt.Note("node 1 lost a replica (tolerated, majority intact) and then shed its range to node 2 by live migration")
	if rep != nil {
		nt.Note("migration copied %d records; map flipped to version %d", rep.Copied, rep.MapVersion)
	}
	tables := []*stats.Table{pt, nt}
	if !o.Quick {
		tables = append(tables, e18Scaling(o, seed))
	}
	return tables
}

// e18Scaling reruns the healthy-cluster phase at wider fabrics: the
// same service, the same fleet discipline, at 3, 5 and 7 serving nodes
// (x 1+RF machines each). The claim under test is structural — adding
// nodes adds capacity without any shared-memory coupling to pay for —
// so the table reports throughput alongside the same zero-loss audit
// every row of E18 proper answers to.
func e18Scaling(o Options, seed uint64) *stats.Table {
	numKeys := 210
	window := sim.Time(8_000_000)
	st := stats.NewTable("E18c / fabric scaling: the same service at N serving nodes",
		"nodes", "machines", "clients", "ops", "ops/sec", "moved", "lost", "errs", "audit keys", "audit lost")
	for _, nodes := range []int{3, 5, 7} {
		clients := 6 * nodes
		c, pool := e18Boot(nodes, numKeys, clients, seed+uint64(nodes), seed)
		e18Run(c, window)
		audKeys, audLost := e18Audit(c, pool)
		st.AddRow(fmt.Sprint(nodes), fmt.Sprint(nodes*(1+e18RF)), fmt.Sprint(clients),
			fmt.Sprint(pool.Ops), stats.F(float64(pool.Ops)/c.Nodes[0].M.Seconds(window)),
			fmt.Sprint(pool.Moved), fmt.Sprint(pool.Lost), fmt.Sprint(pool.Errs),
			fmt.Sprint(audKeys), fmt.Sprint(audLost))
		c.Shutdown()
	}
	st.Note("clients scale with the fabric (6 per node); contract: lost, errs and audit lost are 0 on every row")
	return st
}

// e18Replicas renders a store's per-slot attachment states compactly
// ("0:armed 1:lost").
func e18Replicas(kv *store.Store) string {
	rs := kv.LifecycleReport()
	if len(rs) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(rs))
	for _, r := range rs {
		parts = append(parts, fmt.Sprintf("%d:%s", r.Slot, r.State))
	}
	return strings.Join(parts, " ")
}

// e18Boot boots an E18 cluster: nodes serving nodes of 1+e18RF
// machines each over an evenly split numKeys keyspace, runtimes seeded
// from seed. Once every quorum is up (at most 2000 100k-cycle slices)
// it starts a 30%-read fleet of clients seeded from fleetSeed+3.
func e18Boot(nodes, numKeys, clients int, seed, fleetSeed uint64) (*cluster.Cluster, *cluster.Pool) {
	keys := store.Keyspace(numKeys)
	c := cluster.New(sim.NewEngine(), cluster.Params{
		Nodes:  nodes,
		Splits: store.EvenSplits(keys, nodes),
		RF:     e18RF,
		Cores:  8,
		Seed:   seed,
		Store:  store.Params{Shards: 2, CacheBlocks: 16, FlushCycles: 20_000},
	})
	for step := 0; step < 2000; step++ {
		c.RunFor(100_000)
		if c.Ready() {
			break
		}
	}
	return c, c.NewPool(cluster.PoolParams{Clients: clients, Keys: keys, ReadPct: 30,
		ValBytes: e18ValBytes, ThinkCycles: 4000, Seed: fleetSeed + 3})
}

// e18Run drives c for cycles in 100k-cycle slices.
func e18Run(c *cluster.Cluster, cycles sim.Time) {
	for drove := sim.Time(0); drove < cycles; drove += 100_000 {
		c.RunFor(100_000)
	}
}

// e18Audit reads every acked PUT back from the node the current map
// assigns it to, below the wire (audit-only: the fleet's ledger is the
// ground truth, the read is instantaneous bookkeeping on live state).
// A read that errs counts as lost, and so does every key of an audit
// that does not finish.
func e18Audit(c *cluster.Cluster, pool *cluster.Pool) (keys, lost int) {
	fm := c.Map(0)
	// The audit's Gets consume engine events while the fleet is still
	// live, so they must issue in a deterministic order — never raw map
	// order, or the whole run diverges from here on.
	acked := detmap.Keys(pool.AckedPuts)
	audited := false
	c.Nodes[0].RT.Boot("e18.audit", func(t *core.Thread) {
		l, erred := pool.AckedPuts.LiveAudit(t, acked, func(key string) *store.Store { return c.Nodes[fm.NodeFor(key)].KV })
		lost, audited = len(l)+len(erred), true
	})
	for step := 0; step < 2000 && !audited; step++ {
		c.RunFor(100_000)
	}
	if !audited {
		lost = len(acked)
	}
	return len(acked), lost
}
