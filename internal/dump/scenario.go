package dump

import (
	"fmt"

	"chanos"
	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// ScenarioKVLoad is the canonical replayable scenario: the full
// key-value vertical — client fleet on the wire → NIC RSS → netstack
// shard → per-connection handler → store shard → per-shard log device,
// optionally with a quorum replica machine — driven by the shared
// seeded workload generator. `chanos-sim -scenario kvload` boots through
// Build, so its dumps replay under chanos-sim with the identical events.
const ScenarioKVLoad = "kvload"

// fill picks the config's world once — Scenario, or cluster when
// Scenario is empty and Machines > 0 — and applies that world's
// defaults to zero fields. After fill, Scenario alone routes: Machines,
// Replicas and RF only size the world (see Shape). The filled config is
// what a dump records, so the defaults are part of the event-sequence
// contract too.
func (c *Config) fill() {
	if c.Scenario == "" {
		c.Scenario = ScenarioKVLoad
		if c.Machines > 0 {
			c.Scenario = ScenarioCluster
		}
	}
	// def sets a zero field to its kvload or its cluster default.
	def := func(v *int, kvload, cluster int) {
		if *v == 0 {
			*v = kvload
			if c.Scenario == ScenarioCluster {
				*v = cluster
			}
		}
	}
	def(&c.Machines, 0, 3)
	def(&c.Cores, 8, 8)
	def(&c.Shards, 0, 2) // 0 = store default
	def(&c.Clients, 16, 12)
	def(&c.Requests, 400, 300)
	def(&c.ReadPct, 70, 50)
	def(&c.Keys, 128, 120)
	def(&c.ValBytes, 256, 128)
}

// Shape returns the world the filled config selects, the serving
// machines it boots and the replica machines each of them attaches.
// Validate, Replay, the chaos harness and chanos-sim route and size on
// it, so none of them reads Machines as a selector.
func (c Config) Shape() (world string, nodes, rf int) {
	c.fill()
	if c.Scenario == ScenarioCluster {
		return c.Scenario, c.Machines, c.RF
	}
	return c.Scenario, 1, c.Replicas
}

// Check refuses a config that its world would not run as written:
// machines or faults the world never boots, which the dump would record
// and a run would appear to survive. The errors name the command-line
// flag that sets the field. Scenarios other than kvload and cluster pass.
func (c Config) Check() error {
	c.fill()
	kv, cl := c.Scenario == ScenarioKVLoad, c.Scenario == ScenarioCluster
	for _, r := range []struct {
		refuse    bool
		flag, why string
	}{
		{kv && c.Machines > 0, fmt.Sprintf("-machines %d", c.Machines), "a kvload world is one serving machine (-scenario cluster boots several)"},
		{kv && c.RF > 0, fmt.Sprintf("-rf %d", c.RF), "a kvload world sets its replica machine with -replicas (-rf is per cluster node)"},
		{kv && c.Replicas > 1, fmt.Sprintf("-replicas %d", c.Replicas), "a kvload world boots at most one replica machine"},
		{kv && c.ReplicaReads && c.Replicas != 1, "-replica-reads", "replica reads need the replica machine of -replicas 1"},
		{cl && c.Replicas > 0, fmt.Sprintf("-replicas %d", c.Replicas), "a cluster node's replica machines are set with -rf"},
		{cl && c.ReplicaReads, "-replica-reads", "only a kvload world with -replicas 1 serves replica reads"},
		{cl && c.Loss > 0, fmt.Sprintf("-loss %g", c.Loss), "a cluster world's wires drop no packets"},
		{cl && c.FailWrites > 0, fmt.Sprintf("-fail-writes %d", c.FailWrites), "a cluster world injects no log-device write failures"},
		{cl && c.FailShard > 0, fmt.Sprintf("-fail-shard %d", c.FailShard), "a cluster world injects no log-device write failures"},
	} {
		if r.refuse {
			return fmt.Errorf("%s: %s: %s", c.Scenario, r.flag, r.why)
		}
	}
	return nil
}

// fillFor fills cfg for the builder of world, panicking with Check's
// refusal, or with one naming -scenario when cfg fills to another world:
// a builder that booted it would record a dump of a world it is not.
func (c Config) fillFor(world string) Config {
	c.fill()
	err := c.Check()
	if err == nil && c.Scenario != world {
		err = fmt.Errorf("%s: -scenario %s: this builder boots a %s world", c.Scenario, c.Scenario, world)
	}
	if err != nil {
		panic(err)
	}
	return c
}

// World is one booted kvload machine, ready to Run — and, armed with
// its Collector, ready to dump. Its replica machine, if any, is
// Repls[0].
type World struct {
	*store.Machine
	Drive
	Sys *chanos.System
	WL  *store.Workload

	// TapReq/TapResp, when set before Run, observe every request the
	// main pool draws and every response it receives (engine context,
	// same instants either way — pure observation). The chaos harness
	// builds its acked-write ledger on TapResp.
	TapReq  func(client int, m core.Msg)
	TapResp func(client int, m core.Msg)

	// Pool and RPool are the live client fleets, set when Run builds
	// them (RPool only with ReplicaReads) — OnSlice hooks read progress
	// from here.
	Pool  *net.ClientPool
	RPool *net.ClientPool
}

// Build boots a kvload world through store.NewMachine, whose fixed
// boot order is the event-sequence contract: it must not change
// between the run that wrote a dump and the run that replays it, so
// chanos-sim's -scenario and -replay paths both go through exactly this
// function. Build panics on a config Check refuses, and on one that
// fills to another world: callers that take a config from outside the
// program check it first.
func Build(seed uint64, cfg Config) *World {
	cfg = cfg.fillFor(ScenarioKVLoad)
	mp := store.KVMachine(cfg.Cores, seed, store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks})
	mp.Wire.LossProb = cfg.Loss
	if cfg.Replicas > 0 {
		mp.Replicas = append(mp.Replicas, store.KVReplica(seed, cfg.ReplicaReads))
	}
	m := store.NewMachine(sim.NewEngine(), mp)
	return &World{
		Machine: m,
		Drive: Drive{
			C:     &Collector{Eng: m.M.Eng, Nodes: []*store.Machine{m}, Seed: seed, Config: cfg},
			slice: m.M.Cycles(0.0002),
		},
		Sys: &chanos.System{Eng: m.M.Eng, M: m.M, RT: m.RT},
		WL:  store.NewWorkload(seed, cfg.Clients, cfg.Keys, cfg.ReadPct, cfg.ValBytes),
	}
}

// Close shuts the world's machines down.
func (w *World) Close() { w.Shutdown() }

// Run drives the scenario: prefill the keyspace, arm the injected disk
// fault (if configured), then serve the closed-loop fleet until it has
// its responses — or the machine stops making progress, or the engine
// trips a StopAtFired replay halt. Every phase checks StopReached so a
// replay halts wherever its recorded instant lies, even mid-prefill.
func (w *World) Run() *Report {
	r := &Report{}

	filled := false
	w.Sys.Boot("prefill", func(t *chanos.Thread) {
		w.WL.Prefill(t, w.KV)
		filled = true
	})
	w.waitFor(w.Sys.Cycles(0.0005), 0, func() bool { return filled })
	r.Filled = filled
	r.PrefillCycles = w.Sys.Now()

	// Fault injection arms here — after prefill, before the fleet — in
	// both original runs and replays, so the Nth write completion fails
	// at the same instant on both.
	cfg := w.Config()
	if filled && cfg.FailWrites > 0 {
		disks := w.KV.Disks()
		disks[cfg.FailShard%len(disks)].InjectWriteFailures(cfg.FailWrites)
	}

	if cfg.ReplicaReads && len(w.Repls) > 0 {
		rwl := store.NewWorkload(w.C.Seed+5, cfg.Clients, cfg.Keys, 100, cfg.ValBytes)
		r.RPool = net.NewClientPool(w.Repls[0].NW, rwl.Fleet(store.ReadPort, func(_, _ int, payload core.Msg) {
			if resp, ok := payload.(store.KVResponse); ok {
				if resp.OK {
					r.ReplicaGets++
				} else {
					r.ReplicaRefused++
				}
			}
		}))
		w.RPool = r.RPool
	}

	fleet := w.WL.Fleet(store.KVPort, func(client, _ int, payload core.Msg) {
		if w.TapResp != nil {
			w.TapResp(client, payload)
		}
		resp, ok := payload.(store.KVResponse)
		if !ok || resp.Err != "" {
			r.Errs++
			return
		}
		if !resp.Found && resp.OK && resp.Ver == 0 {
			r.NotFound++
		}
	})
	if w.TapReq != nil {
		fleet.MakeReq = func(client, req int) (core.Msg, int) {
			m, n := w.WL.MakeReq(client, req)
			w.TapReq(client, m)
			return m, n
		}
	}
	pool := net.NewClientPool(w.NW, fleet)
	r.Pool = pool
	w.Pool = pool

	r.Stalled = w.drive(func() uint64 { return pool.Responses })
	r.Responses = pool.Responses
	r.Completed = pool.Completed
	w.finish(r)
	return r
}
