// Command chanos-sim boots a simulated machine with a chanOS kernel and a
// message-passing file system, runs a mixed workload scenario, and prints
// a machine/trace summary: per-subsystem operation counts, core
// utilisation, cache behaviour and runtime statistics.
//
// With -scenario kvload it instead boots the replayable KV vertical
// (the same world examples/kvserver serves), optionally with injected
// log-device write failures; -dump-on-fail writes a machine core dump
// on any shard fail-stop. With -replay it time-travels: rebuild the
// dumped world from its recorded (seed, config) and halt the engine
// just before the failing instant, at the dump's exact event count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"chanos/internal/blockdev"
	"chanos/internal/chaos"
	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sched"
	"chanos/internal/sim"
	"chanos/internal/telemetry"
	"chanos/internal/trace"
	"chanos/internal/vfs"
	"chanos/internal/workload"
)

func main() {
	var (
		cores     = flag.Int("cores", 64, "number of cores")
		clients   = flag.Int("clients", 16, "workload client threads")
		seconds   = flag.Float64("seconds", 0.005, "simulated seconds to run")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		policy    = flag.String("sched", "locality", "placement policy: rr|random|least|locality|steal")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON timeline here")

		scenario   = flag.String("scenario", "", "named scenario: kvload, cluster (default: the VFS metadata workload)")
		machines   = flag.Int("machines", 0, "cluster: serving nodes (0 = default)")
		rf         = flag.Int("rf", 0, "cluster: replica machines per node")
		shards     = flag.Int("shards", 0, "kvload: store shards (0 = default)")
		requests   = flag.Int("requests", 0, "kvload: client requests to serve (0 = default)")
		readPct    = flag.Int("readpct", 0, "kvload: GET share 0-100 (0 = default)")
		keys       = flag.Int("keys", 0, "kvload: keyspace size (0 = default)")
		logBlocks  = flag.Int("logblocks", 0, "kvload: per-shard log-region blocks (0 = default)")
		replicas   = flag.Int("replicas", 0, "kvload: replica machines (0 or 1)")
		loss       = flag.Float64("loss", 0, "kvload: wire packet loss probability")
		failWrites = flag.Int("fail-writes", 0, "kvload: fail the next N log-device write completions after prefill")
		failShard  = flag.Int("fail-shard", 0, "kvload: which shard's device the injected failures hit")
		dumpOnFail = flag.String("dump-on-fail", "", "kvload: write a machine core dump into this directory on any shard fail-stop")
		replay     = flag.String("replay", "", "replay a machine core dump: rebuild its world and halt at the recorded event count")
		redump     = flag.String("redump", "", "with -replay: re-dump the halted machine to this path (differential check)")

		chaosSchedule = flag.String("chaos-schedule", "", "run one chaos fault schedule against the selected scenario (\"gen\" = derive one from the seed); red exits 1")
		chaosSeeds    = flag.Int("chaos-seeds", 0, "fan N seeded chaos schedules across the scenario matrix; any red exits 1")
		chaosOut      = flag.String("chaos-out", "", "with -chaos-seeds: write the matrix summary JSON here")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayDump(*replay, *redump))
	}
	if *chaosSeeds > 0 {
		os.Exit(runChaosSweep(*chaosSeeds, *seed, *dumpOnFail, *chaosOut))
	}
	if *chaosSchedule != "" {
		m := *machines
		if *scenario == dump.ScenarioCluster && m == 0 {
			m = 3
		}
		os.Exit(runChaosSchedule(*chaosSchedule, dump.Config{
			Cores: *cores, Shards: *shards, Clients: *clients,
			Requests: *requests, ReadPct: *readPct, Keys: *keys,
			LogBlocks: *logBlocks, Replicas: *replicas, Loss: *loss,
			Machines: m, RF: *rf,
		}, *seed, *dumpOnFail))
	}
	if *scenario != "" {
		os.Exit(runScenario(*scenario, dump.Config{
			Cores: *cores, Shards: *shards, Clients: *clients,
			Requests: *requests, ReadPct: *readPct, Keys: *keys,
			LogBlocks: *logBlocks, Replicas: *replicas, Loss: *loss,
			FailWrites: *failWrites, FailShard: *failShard,
			Machines: *machines, RF: *rf,
		}, *seed, *dumpOnFail))
	}

	var s core.Scheduler
	switch *policy {
	case "rr":
		s = &sched.RoundRobin{}
	case "random":
		s = sched.NewRandom(*seed)
	case "least":
		s = &sched.LeastLoaded{}
	case "locality":
		s = &sched.Locality{}
	case "steal":
		s = sched.NewWorkStealing(*seed)
	default:
		fmt.Fprintf(os.Stderr, "chanos-sim: unknown scheduler %q\n", *policy)
		os.Exit(1)
	}

	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(*cores))
	var collector *trace.Collector
	cfg := core.Config{Seed: *seed, Sched: s}
	if *traceFile != "" {
		collector = trace.New(m.P.CyclesPerSec)
		cfg.Tracer = collector
	}
	rt := core.NewRuntime(m, cfg)
	defer rt.Shutdown()

	k := kernel.New(rt, kernel.Config{KernelCoreFraction: 0.25})
	k.Register("time", 1, func(t *core.Thread, req kernel.Request) core.Msg {
		return t.Now()
	})

	disk := blockdev.NewDisk(rt, blockdev.DefaultDiskParams(16384))
	drv := blockdev.NewDriver(rt, disk, 128, k.KernelCores()[0])

	fsReady := rt.NewChan("fs.ready", 1)
	rt.Boot("boot", func(t *core.Thread) {
		sb, err := vfs.Format(t, drv, 16384, 4096)
		if err != nil {
			panic(err)
		}
		fs := vfs.NewMsgFS(rt, drv, sb, vfs.MsgFSConfig{CacheBlocks: 2048})
		for d := 0; d < 8; d++ {
			dir := fmt.Sprintf("/srv%d", d)
			if _, err := fs.Mkdir(t, dir); err != nil {
				panic(err)
			}
			for f := 0; f < 8; f++ {
				p := fmt.Sprintf("%s/obj%d", dir, f)
				if _, err := fs.Create(t, p); err != nil {
					panic(err)
				}
			}
		}
		fsReady.Send(t, fs)
	})
	// Drain the boot/format phase before the measured window starts.
	rt.Run()

	counts := make([]uint64, *clients)
	rt.Boot("workload", func(t *core.Thread) {
		v, _ := fsReady.Recv(t)
		fs := v.(vfs.FS)
		for i := 0; i < *clients; i++ {
			i := i
			rng := sim.NewRNG(*seed + uint64(i)*131)
			mix := workload.MetadataMix()
			t.Spawn(fmt.Sprintf("client.%d", i), func(ct *core.Thread) {
				for {
					d := rng.Intn(8)
					f := rng.Intn(8)
					p := fmt.Sprintf("/srv%d/obj%d", d, f)
					switch mix.Name(mix.Pick(rng)) {
					case "lookup":
						fs.Lookup(ct, p)
					case "stat":
						fs.Stat(ct, p)
					case "read":
						fs.Read(ct, p, 0, 64)
					case "write":
						fs.Write(ct, p, 0, []byte("data"))
					case "create":
						fs.Create(ct, fmt.Sprintf("/srv%d/new%d_%d", d, i, counts[i]))
					}
					k.Call(ct, "time", i, "now", nil)
					counts[i]++
					ct.Compute(1000)
				}
			})
		}
	})

	// With tracing on, statd sweeps the scheduler and emits per-core
	// run-queue depth and busy-permille counter series into the same
	// timeline — Perfetto shows load imbalance alongside the run
	// segments. The sweep is engine-context and costs the simulated
	// machine nothing, so the trace stays behaviour-neutral. Started
	// only now: its perpetual re-arm would keep the boot-phase Run()
	// (which drains to quiescence) from ever returning.
	if collector != nil {
		sd := telemetry.NewStatd(eng)
		sd.Tracer = collector
		sd.Register("sched", telemetry.NewSchedSource(rt, func(c int) uint64 {
			return uint64(m.Core(c).Utilization(eng.Now()) * 1000)
		}))
		sd.Start()
	}

	window := m.Cycles(*seconds)
	rt.RunFor(window)

	var totalOps uint64
	for _, c := range counts {
		totalOps += c
	}
	st := rt.Stats()
	fmt.Printf("chanos-sim: %d cores, %d clients, %.4f simulated seconds (%d cycles)\n",
		*cores, *clients, *seconds, window)
	fmt.Printf("  fs+kernel ops     %d (%.0f ops/sec)\n", totalOps, float64(totalOps)/(*seconds))
	fmt.Printf("  threads spawned   %d (alive %d)\n", st.Spawns, rt.Alive())
	fmt.Printf("  messages sent     %d (%.1f per op)\n", st.Sends, float64(st.Sends)/float64(totalOps))
	fmt.Printf("  bytes on wire     %d\n", st.BytesSent)
	fmt.Printf("  rendezvous        %d\n", st.Rendezvous)
	fmt.Printf("  context switches  %d\n", st.Switches)
	fmt.Printf("  disk reads/writes %d/%d, hazards %d\n", disk.Reads, disk.Writes, disk.Hazards)

	// Core utilisation: min / median / max.
	utils := make([]float64, *cores)
	for i := 0; i < *cores; i++ {
		utils[i] = m.Core(i).Utilization(eng.Now())
	}
	sort.Float64s(utils)
	fmt.Printf("  core utilisation  min %.1f%%  median %.1f%%  max %.1f%%\n",
		utils[0]*100, utils[*cores/2]*100, utils[*cores-1]*100)

	if collector != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
			os.Exit(1)
		}
		if err := collector.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "chanos-sim: writing trace: %v\n", err)
		}
		f.Close()
		fmt.Printf("  trace             %s (%d events, %d dropped)\n",
			*traceFile, collector.Len(), collector.Dropped)
	}
}

// runScenario boots and drives a named replayable scenario. It returns
// 1 when the fleet stalled, a conservation law broke, or a request
// errored or was lost with no fault injected.
func runScenario(name string, cfg dump.Config, seed uint64, dumpDir string) int {
	var w dump.Scenario
	switch name {
	case dump.ScenarioKVLoad:
		cfg.Scenario = name
		if err := cfg.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
			return 2
		}
		w = dump.Build(seed, cfg)
	case dump.ScenarioCluster:
		w = dump.BuildCluster(seed, cfg)
	default:
		fmt.Fprintf(os.Stderr, "chanos-sim: unknown scenario %q (have: kvload, cluster)\n", name)
		return 2
	}
	defer w.Close()
	d := w.Driver()
	if dumpDir != "" {
		d.C.OnFailStop(func(dd *dump.Dump) { writeDump(dumpDir, dd) })
	}
	cfg = d.Config()
	n0 := d.C.Nodes[0]
	fmt.Printf("chanos-sim: scenario %s, %d machines, %d cores each, %d store shards per node, %d clients, %d keys, %d%% reads, seed %d\n",
		cfg.Scenario, machines(d.C), cfg.Cores, n0.KV.Shards(), cfg.Clients, cfg.Keys, cfg.ReadPct, seed)
	if cfg.FailWrites > 0 {
		fmt.Printf("  fault: next %d write completions on shard %d's log device will fail\n",
			cfg.FailWrites, cfg.FailShard)
	}
	r := w.Run()
	var moved, lost uint64
	if cw, ok := w.(*dump.ClusterWorld); ok {
		moved, lost = cw.Pool.Moved, cw.Pool.Lost
	}
	fmt.Printf("  served %d/%d requests (%d not-found, %d redirects followed, %d errors, %d lost) in %.2f simulated ms\n",
		r.Responses, cfg.Requests, r.NotFound, moved, r.Errs, lost, n0.M.Seconds(d.C.Eng.Now())*1e3)
	fmt.Printf("  engine: %d counted events across %d machines\n", d.C.Eng.Fired(), machines(d.C))
	for i, n := range d.C.Nodes {
		fmt.Printf("  node %d: store state %s\n", i, n.KV.Lifecycle())
	}
	if r.Stalled {
		fmt.Println("  stalled: the fleet stopped making progress")
	}
	for _, b := range r.ConservationBad {
		fmt.Printf("  CONSERVATION VIOLATED: %s\n", b)
	}
	if cfg.FailWrites > 0 && dumpDir != "" && !d.C.Dumped() {
		fmt.Fprintln(os.Stderr, "chanos-sim: injected fault never tripped a fail-stop")
		return 1
	}
	// Injected write failures fail requests by design; with none, an
	// errored or lost request is a failed run.
	if r.Stalled || len(r.ConservationBad) > 0 || (cfg.FailWrites == 0 && r.Errs+lost > 0) {
		return 1
	}
	return 0
}

// machines counts every machine a collector's world runs: each serving
// node and its replica machines.
func machines(c *dump.Collector) int {
	n := 0
	for _, m := range c.Nodes {
		n += 1 + len(m.Repls)
	}
	return n
}

// writeDump persists a core dump and prints the one-command replay line.
func writeDump(dir string, d *dump.Dump) {
	path := filepath.Join(dir, d.FileName())
	if err := dump.WriteFile(path, d); err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return
	}
	fmt.Printf("dump written: %s\n", path)
	fmt.Printf("  reason: %s\n", d.Reason)
	fmt.Printf("  replay: %s\n", dump.ReplayCommand(path))
}

// replayDump rebuilds a dumped world and halts it at the dump's
// recorded event count — the state just before the failing instant —
// then diffs the halted machines against the dump. A dump that carries
// a fault schedule replays through the chaos harness, which re-arms the
// identical timeline and re-runs the identical phases.
func replayDump(path, redumpPath string) int {
	d, err := dump.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return 1
	}
	if bad := d.Validate(); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "chanos-sim: %s is not a valid dump:\n", path)
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", b)
		}
		return 1
	}
	fmt.Printf("replay: scenario %s, seed %d, target event %d (%q)\n",
		d.Config.Scenario, d.Seed, d.EventCount, d.Reason)
	var w dump.Scenario
	if d.Config.Chaos != "" {
		var rr *chaos.Result
		if rr, err = chaos.Replay(d); rr != nil {
			w = rr.World
		}
	} else {
		w, _, err = dump.Replay(d)
	}
	if w != nil {
		defer w.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return 1
	}
	c := w.Driver().C
	fmt.Printf("replay: halted at event %d (recorded %d), cycle %d (%.3f simulated ms), %d machines\n",
		c.Eng.Fired(), d.EventCount, c.Eng.Now(), c.Nodes[0].M.Seconds(c.Eng.Now())*1e3, machines(c))
	if d.Config.Chaos != "" {
		fmt.Printf("replay: schedule %q re-armed\n", d.Config.Chaos)
	}
	rd := c.Snapshot(d.Reason)
	if !dump.Equal(d, rd) {
		fmt.Println("replay: MACHINE STATE DIVERGES from the dump:")
		for _, line := range dump.Diff(d, rd) {
			fmt.Printf("  %s\n", line)
		}
		return 1
	}
	fmt.Println("replay: machine state matches the dump exactly")
	if redumpPath != "" {
		if err := dump.WriteFile(redumpPath, rd); err != nil {
			fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
			return 1
		}
		fmt.Printf("re-dump written: %s\n", redumpPath)
	}
	return 0
}
