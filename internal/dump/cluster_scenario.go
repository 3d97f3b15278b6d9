package dump

import (
	"fmt"

	"chanos/internal/cluster"
	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// ScenarioCluster is the N-machine replayable scenario: Machines
// serving nodes (each a full chanOS machine with RF replica machines)
// routed by a versioned shard map, driven by a map-caching client
// fleet that follows Moved redirects. All machines share one engine —
// one clock, one counted-event sequence — so a cluster dump replays
// exactly like a single-machine one, just with more state to compare.
const ScenarioCluster = "cluster"

// fillCluster applies cluster-scenario defaults to zero fields. The
// filled config is what the dump records, so the defaults are part of
// the event-sequence contract too.
func (c *Config) fillCluster() {
	c.Scenario = ScenarioCluster
	if c.Machines == 0 {
		c.Machines = 3
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Clients == 0 {
		c.Clients = 12
	}
	if c.Requests == 0 {
		c.Requests = 300
	}
	if c.ReadPct == 0 {
		c.ReadPct = 50
	}
	if c.Keys == 0 {
		c.Keys = 120
	}
	if c.ValBytes == 0 {
		c.ValBytes = 128
	}
}

// ClusterWorld is one booted cluster scenario, ready to Run — and,
// armed with its Collector, ready to dump every machine at once.
type ClusterWorld struct {
	Drive
	Cl   *cluster.Cluster
	Pool *cluster.Pool

	keys []string
}

// clusterSlice is the cluster world's drive slice, in cycles.
const clusterSlice = sim.Time(100_000)

// Keys returns the scenario keyspace (the pool draws uniformly from
// it; prefill wrote every entry at its owning node).
func (w *ClusterWorld) Keys() []string { return w.keys }

// BuildCluster boots a cluster world. As with Build, the construction
// order here is the event-sequence contract between a run that wrote a
// dump and the run that replays it.
func BuildCluster(seed uint64, cfg Config) *ClusterWorld {
	cfg.fillCluster()
	keys := store.Keyspace(cfg.Keys)
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Params{
		Nodes: cfg.Machines, Splits: store.EvenSplits(keys, cfg.Machines), RF: cfg.RF, Cores: cfg.Cores,
		Seed: seed,
		Store: store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks,
			FlushCycles: 20_000},
		Wire: net.DefaultWireParams(),
	})
	c := &Collector{Eng: eng, Seed: seed, Config: cfg,
		MapVersion: func(node int) uint64 { return cl.Map(node).Version }}
	for _, n := range cl.Nodes {
		c.Nodes = append(c.Nodes, n.Machine)
	}
	return &ClusterWorld{
		Drive: Drive{C: c, seed: seed, cfg: cfg, slice: clusterSlice},
		Cl:    cl, keys: keys,
	}
}

// Close shuts every machine down.
func (w *ClusterWorld) Close() { w.Cl.Shutdown() }

// Run drives the scenario: wait for every node's replica quorum, seed
// the keyspace (each node writes the keys it owns), then drive the
// routed fleet to its request count — or until the cluster stalls, or
// the engine trips a StopAtFired replay halt. Every phase checks
// StopReached so a replay halts wherever its recorded instant lies.
func (w *ClusterWorld) Run() *Report {
	r := &Report{}

	w.waitFor(w.slice, 2_000, w.Cl.Ready)

	filled := 0
	for _, n := range w.Cl.Nodes {
		n := n
		n.RT.Boot(fmt.Sprintf("prefill.%d", n.ID), func(t *core.Thread) {
			for _, key := range w.keys {
				if w.Cl.Map(n.ID).NodeFor(key) != n.ID {
					continue
				}
				val := make([]byte, w.cfg.ValBytes)
				copy(val, key)
				n.KV.Put(t, key, val)
			}
			filled++
		})
	}
	w.waitFor(w.slice, 0, func() bool { return filled == len(w.Cl.Nodes) })
	r.Filled = filled == len(w.Cl.Nodes)
	r.PrefillCycles = w.C.Eng.Now()

	w.Pool = w.Cl.NewPool(cluster.PoolParams{
		Clients: w.cfg.Clients, Keys: w.keys, ReadPct: w.cfg.ReadPct,
		ValBytes: w.cfg.ValBytes, ThinkCycles: 4_000, Seed: w.seed + 3,
	})
	r.Stalled = w.drive(func() uint64 { return w.Pool.Ops })
	r.Responses = w.Pool.Ops
	r.Errs = w.Pool.Errs
	w.finish(r)
	return r
}
