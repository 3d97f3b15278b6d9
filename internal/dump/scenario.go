package dump

import (
	"chanos"
	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// ScenarioKVLoad is the canonical replayable scenario: the full
// kvserver vertical — client fleet on the wire → NIC RSS → netstack
// shard → per-connection handler → store shard → per-shard log device,
// optionally with a quorum replica machine — driven by the shared
// seeded workload generator. examples/kvserver boots through Build so
// its dumps replay under chanos-sim with the identical event sequence.
const ScenarioKVLoad = "kvload"

// fill applies scenario defaults to zero fields.
func (c *Config) fill() {
	if c.Scenario == "" {
		c.Scenario = ScenarioKVLoad
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.Requests == 0 {
		c.Requests = 400
	}
	if c.ReadPct == 0 {
		c.ReadPct = 70
	}
	if c.Keys == 0 {
		c.Keys = 128
	}
	if c.ValBytes == 0 {
		c.ValBytes = 256
	}
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
// examples/kvserver and the -replay path both go through exactly this
// function.
func Build(seed uint64, cfg Config) *World {
	cfg.fill()
	mp := store.KVMachine(cfg.Cores, seed, store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks})
	mp.Wire.LossProb = cfg.Loss
	if cfg.Replicas > 0 {
		mp.Replicas = append(mp.Replicas, store.KVReplica(seed, cfg.ReplicaReads))
	}
	m := store.NewMachine(sim.NewEngine(), mp)
	return &World{
		Machine: m,
		Drive: Drive{
			C:    &Collector{Eng: m.M.Eng, Nodes: []*store.Machine{m}, Seed: seed, Config: cfg},
			seed: seed, cfg: cfg, slice: m.M.Cycles(0.0002),
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
	if filled && w.cfg.FailWrites > 0 {
		disks := w.KV.Disks()
		disks[w.cfg.FailShard%len(disks)].InjectWriteFailures(w.cfg.FailWrites)
	}

	if w.cfg.ReplicaReads && len(w.Repls) > 0 {
		rwl := store.NewWorkload(w.seed+5, w.cfg.Clients, w.cfg.Keys, 100, w.cfg.ValBytes)
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
