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
	C   *Collector
	Sys *chanos.System
	WL  *store.Workload

	// OnSlice, when set, runs in host context after each drive slice
	// (slice index from 0). Host-side only — printing live stats here
	// cannot perturb the simulation.
	OnSlice func(i int)

	// StallBudget overrides how many consecutive zero-progress drive
	// slices Run tolerates before declaring the fleet stalled (0 = the
	// default 50). Host-side drive-loop policy only — it never touches
	// the event sequence, so a replay may use any budget large enough
	// to reach the recorded event. The chaos harness raises it past
	// the wire's ~57M-cycle RTO give-up horizon so a run that must
	// *detect* a dead replica isn't misread as a hung one.
	StallBudget int

	// TapReq/TapResp, when set before Run, observe every request the
	// main pool draws and every response it receives (engine context,
	// same instants either way — pure observation). The chaos harness
	// builds its acked-write ledger here.
	TapReq  func(client int, m core.Msg)
	TapResp func(client int, m core.Msg)

	// Pool and RPool are the live client fleets, set when Run builds
	// them (RPool only with ReplicaReads) — OnSlice hooks read progress
	// from here.
	Pool  *net.ClientPool
	RPool *net.ClientPool

	seed uint64
	cfg  Config
}

// Report is what one Run produced.
type Report struct {
	Filled         bool
	PrefillCycles  sim.Time
	Responses      uint64
	Completed      uint64
	Errs           uint64
	NotFound       uint64
	ReplicaGets    uint64
	ReplicaRefused uint64
	Stalled        bool
	// Halted: the engine tripped StopAtFired (replay reached its
	// recorded event count) before the workload finished.
	Halted          bool
	ConservationBad []string
	Pool            *net.ClientPool
	RPool           *net.ClientPool
}

// Build boots a kvload world through store.NewMachine, whose fixed
// boot order is the event-sequence contract: it must not change
// between the run that wrote a dump and the run that replays it, so
// examples/kvserver and the -replay path both go through exactly this
// function.
func Build(seed uint64, cfg Config) *World {
	cfg.fill()
	mp := store.MachineParams{
		Cores: cfg.Cores, Seed: seed, Wire: net.DefaultWireParams(),
		Store: store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks},
		Port:  6379, Accept: "accept", Conn: "kv", Serve: store.ServeConn,
	}
	mp.Wire.Seed = seed
	mp.Wire.LossProb = cfg.Loss
	if cfg.Replicas > 0 {
		rp := store.ReplicaMachineParams{Seed: seed + 2, Wire: net.DefaultWireParams()}
		rp.Wire.Seed = seed + 1
		if cfg.ReplicaReads {
			rp.ReadPort = 6390
		}
		mp.Replicas = append(mp.Replicas, rp)
	}
	m := store.NewMachine(sim.NewEngine(), mp)
	return &World{
		Machine: m,
		C:       &Collector{Eng: m.M.Eng, M: m, Seed: seed, Config: cfg},
		Sys:     &chanos.System{Eng: m.M.Eng, M: m.M, RT: m.RT},
		WL:      store.NewWorkload(seed, cfg.Clients, cfg.Keys, cfg.ReadPct, cfg.ValBytes),
		seed:    seed, cfg: cfg,
	}
}

// Config returns the world's filled scenario config.
func (w *World) Config() Config { return w.cfg }

// Close shuts the world's machines down.
func (w *World) Close() { w.Shutdown() }

// Run drives the scenario: prefill the keyspace, arm the injected disk
// fault (if configured), then serve the closed-loop fleet until it has
// its responses — or the machine stops making progress, or the engine
// trips a StopAtFired replay halt. Every phase checks StopReached so a
// replay halts wherever its recorded instant lies, even mid-prefill.
func (w *World) Run() *Report {
	r := &Report{}
	eng := w.Sys.Eng

	filled := false
	w.Sys.Boot("prefill", func(t *chanos.Thread) {
		w.WL.Prefill(t, w.KV)
		filled = true
	})
	for !filled && !eng.StopReached() {
		w.Sys.RunFor(w.Sys.Cycles(0.0005))
	}
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
		r.RPool = net.NewClientPool(w.Repls[0].NW, net.ClientParams{
			Port:        6390,
			Clients:     w.cfg.Clients,
			ReqsPerConn: 8,
			ThinkCycles: 2000,
			Seed:        w.seed + 5,
			MakeReq:     rwl.MakeReq,
			OnResp: func(client, req int, payload core.Msg) {
				if resp, ok := payload.(store.KVResponse); ok {
					if resp.OK {
						r.ReplicaGets++
					} else {
						r.ReplicaRefused++
					}
				}
			},
		})
		w.RPool = r.RPool
	}

	makeReq := w.WL.MakeReq
	if w.TapReq != nil {
		makeReq = func(client, req int) (core.Msg, int) {
			m, n := w.WL.MakeReq(client, req)
			w.TapReq(client, m)
			return m, n
		}
	}
	pool := net.NewClientPool(w.NW, net.ClientParams{
		Port:        6379,
		Clients:     w.cfg.Clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        w.seed,
		MakeReq:     makeReq,
		OnResp: func(client, req int, payload core.Msg) {
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
		},
	})
	r.Pool = pool
	w.Pool = pool

	slice := w.Sys.Cycles(0.0002)
	budget := w.StallBudget
	if budget <= 0 {
		budget = 50
	}
	stalled := 0
	for i := 0; pool.Responses < uint64(w.cfg.Requests) && !eng.StopReached(); i++ {
		before := pool.Responses
		w.Sys.RunFor(slice)
		if w.OnSlice != nil {
			w.OnSlice(i)
		}
		if eng.StopReached() {
			break
		}
		if pool.Responses == before {
			stalled++
		} else {
			stalled = 0
		}
		if stalled >= budget {
			r.Stalled = true
			break
		}
	}

	r.Responses = pool.Responses
	r.Completed = pool.Completed
	r.Halted = eng.StopReached()
	if !r.Halted {
		// A halted replay is frozen mid-flight; the conservation fold is
		// only meaningful over a machine that was allowed to drain.
		r.ConservationBad = w.SD.SnapshotNow().Conservation()
	}
	return r
}

// Replay is the time-travel half of the dump contract: rebuild the
// dumped world from its (seed, config) and run with the engine armed to
// halt once EventCount counted events have fired — the machine stops in
// exactly the dumped state, one event short of the failing instant.
// The caller owns w (Close it) and can re-dump via w.C for differential
// comparison, or resume with w.Sys.Eng.StopAtFired(0) to step past the
// failure.
func Replay(d *Dump) (*World, *Report, error) {
	if d.Config.Scenario != ScenarioKVLoad {
		return nil, nil, fmt.Errorf("scenario %q is not replayable (only %q worlds boot from a config; this dump still inspects and diffs)",
			d.Config.Scenario, ScenarioKVLoad)
	}
	if d.Config.Chaos != "" {
		// A chaos dump's event sequence includes its fault schedule;
		// replaying without arming it would diverge. internal/chaos owns
		// that arming (chaos.Replay) — dump cannot import it.
		return nil, nil, fmt.Errorf("dump carries a chaos schedule %q: replay it through chaos.Replay (chanos-sim -replay routes there)", d.Config.Chaos)
	}
	w := Build(d.Seed, d.Config)
	w.Sys.Eng.StopAtFired(d.EventCount)
	rep := w.Run()
	if !w.Sys.Eng.StopReached() {
		return w, rep, fmt.Errorf("replay finished at event %d without reaching recorded event %d (dump from a different build?)",
			w.Sys.Eng.Fired(), d.EventCount)
	}
	return w, rep, nil
}
