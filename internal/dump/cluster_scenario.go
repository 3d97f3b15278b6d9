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
	C    *Collector
	Cl   *cluster.Cluster
	Pool *cluster.Pool

	// OnSlice, when set, runs in host context after each drive slice of
	// the fleet phase (slice index from 0) — the cluster twin of
	// World.OnSlice, used by the chaos harness to sample replica lag.
	OnSlice func(i int)

	// StallBudget overrides the zero-progress slice tolerance (0 = the
	// default 200). Host-side drive-loop policy, never event-sequence
	// state — see World.StallBudget.
	StallBudget int

	keys []string
	seed uint64
	cfg  Config
}

// Keys returns the scenario keyspace (the pool draws uniformly from
// it; prefill wrote every entry at its owning node).
func (w *ClusterWorld) Keys() []string { return w.keys }

// BuildCluster boots a cluster world. As with Build, the construction
// order here is the event-sequence contract between a run that wrote a
// dump and the run that replays it.
func BuildCluster(seed uint64, cfg Config) *ClusterWorld {
	cfg.fillCluster()
	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key/%05d", i)
	}
	splits := make([]string, 0, cfg.Machines-1)
	for i := 1; i < cfg.Machines; i++ {
		splits = append(splits, keys[cfg.Keys*i/cfg.Machines])
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Params{
		Nodes: cfg.Machines, Splits: splits, RF: cfg.RF, Cores: cfg.Cores,
		Seed: seed,
		Store: store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks,
			FlushCycles: 20_000},
		Wire: net.DefaultWireParams(),
	})
	w := &ClusterWorld{Cl: cl, keys: keys, seed: seed, cfg: cfg}
	w.C = &Collector{Eng: eng, Cluster: cl, Seed: seed, Config: cfg}
	return w
}

// Config returns the world's filled scenario config.
func (w *ClusterWorld) Config() Config { return w.cfg }

// Close shuts every machine down.
func (w *ClusterWorld) Close() { w.Cl.Shutdown() }

// Run drives the scenario: wait for every node's replica quorum, seed
// the keyspace (each node writes the keys it owns), then drive the
// routed fleet to its request count — or until the cluster stalls, or
// the engine trips a StopAtFired replay halt. Every phase checks
// StopReached so a replay halts wherever its recorded instant lies.
func (w *ClusterWorld) Run() *Report {
	r := &Report{}
	eng := w.C.Eng
	slice := sim.Time(100_000)

	for step := 0; step < 2_000 && !eng.StopReached(); step++ {
		ready := true
		for _, n := range w.Cl.Nodes {
			if !n.KV.ReplCaughtUp() {
				ready = false
			}
		}
		if ready {
			break
		}
		w.Cl.RunFor(slice)
	}

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
	for filled < len(w.Cl.Nodes) && !eng.StopReached() {
		w.Cl.RunFor(slice)
	}
	r.Filled = filled == len(w.Cl.Nodes)
	r.PrefillCycles = eng.Now()

	w.Pool = w.Cl.NewPool(cluster.PoolParams{
		Clients: w.cfg.Clients, Keys: w.keys, ReadPct: w.cfg.ReadPct,
		ValBytes: w.cfg.ValBytes, ThinkCycles: 4_000, Seed: w.seed + 3,
	})
	budget := w.StallBudget
	if budget <= 0 {
		budget = 200
	}
	stalled := 0
	for i := 0; w.Pool.Ops < uint64(w.cfg.Requests) && !eng.StopReached(); i++ {
		before := w.Pool.Ops
		w.Cl.RunFor(slice)
		if w.OnSlice != nil {
			w.OnSlice(i)
		}
		if eng.StopReached() {
			break
		}
		if w.Pool.Ops == before {
			stalled++
		} else {
			stalled = 0
		}
		if stalled >= budget {
			r.Stalled = true
			break
		}
	}

	r.Responses = w.Pool.Ops
	r.Errs = w.Pool.Errs
	r.Halted = eng.StopReached()
	if !r.Halted {
		r.ConservationBad = w.Cl.Nodes[0].SD.SnapshotNow().Conservation()
	}
	return r
}

// ReplayCluster is Replay for cluster dumps: rebuild the dumped
// cluster from its (seed, config) and halt the shared engine at the
// recorded event count — all N machines frozen in the dumped state.
func ReplayCluster(d *Dump) (*ClusterWorld, *Report, error) {
	if d.Config.Scenario != ScenarioCluster {
		return nil, nil, fmt.Errorf("scenario %q is not a cluster dump", d.Config.Scenario)
	}
	if d.Config.Chaos != "" {
		// See Replay: the fault schedule is part of the event sequence
		// and internal/chaos owns its arming.
		return nil, nil, fmt.Errorf("dump carries a chaos schedule %q: replay it through chaos.ReplayCluster (chanos-sim -replay routes there)", d.Config.Chaos)
	}
	w := BuildCluster(d.Seed, d.Config)
	w.C.Eng.StopAtFired(d.EventCount)
	rep := w.Run()
	// An on-demand dump taken right after Run lands exactly on the drive
	// loop's own exit, so the armed stop may never latch — the replay
	// coordinate itself is the contract, not the latch.
	if w.C.Eng.Fired() != d.EventCount {
		return w, rep, fmt.Errorf("replay finished at event %d, recorded %d (dump from a different build?)",
			w.C.Eng.Fired(), d.EventCount)
	}
	return w, rep, nil
}
