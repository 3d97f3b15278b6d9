// Command chanos-sim boots a simulated machine with a chanOS kernel and a
// message-passing file system, runs a mixed workload scenario, and prints
// a machine/trace summary: per-subsystem operation counts, core
// utilisation, cache behaviour and runtime statistics.
//
// With -scenario kvload or cluster it instead boots one of the two
// replayable worlds and prints its full report; -dump-on-fail writes a
// machine core dump on a shard fail-stop, a stall or a conservation
// break. With -replay it time-travels: rebuild the dumped world from its
// recorded (seed, config) and halt the engine just before the failing
// instant, at the dump's exact event count. Each mode refuses (exit 2)
// any flag it would not read.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

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
		cores     = flag.Int("cores", 64, "number of cores (per machine in a world)")
		clients   = flag.Int("clients", 16, "workload client threads (closed-loop wire clients in a world)")
		seconds   = flag.Float64("seconds", 0.005, "simulated seconds to run")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		policy    = flag.String("sched", "locality", "placement policy: rr|random|least|locality|steal")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON timeline here")

		scenario   = flag.String("scenario", "", "replayable world: kvload, cluster (default: the VFS metadata workload)")
		machines   = flag.Int("machines", 0, "cluster: serving nodes (0 = default)")
		rf         = flag.Int("rf", 0, "cluster: replica machines per node, majority-quorum acks")
		shards     = flag.Int("shards", 0, "store shards per serving machine (0 = default)")
		requests   = flag.Int("requests", 0, "client requests to serve (0 = default)")
		readPct    = flag.Int("readpct", 0, "GET share 0-100 (0 = default)")
		keys       = flag.Int("keys", 0, "keyspace size (0 = default)")
		logBlocks  = flag.Int("logblocks", 0, "per-shard log-region blocks; small values force compaction (0 = default)")
		replicas   = flag.Int("replicas", 0, "kvload: replica machines (0 = local-only acks, 1 = quorum: a write acks once durable on both)")
		replReads  = flag.Bool("replica-reads", false, "kvload with -replicas 1: serve a second GET-only fleet from the replica's bounded-staleness read port")
		loss       = flag.Float64("loss", 0, "kvload: wire packet loss probability (each direction)")
		failWrites = flag.Int("fail-writes", 0, "kvload: fail the next N log-device write completions after prefill")
		failShard  = flag.Int("fail-shard", 0, "kvload: which shard's device the injected failures hit")
		statsEvery = flag.Float64("stats-every", 0, "kvload: print a live telemetry line every N simulated ms (0 = off)")
		dumpOnFail = flag.String("dump-on-fail", "", "write a machine core dump into this directory on any shard fail-stop, stall or conservation break")
		replay     = flag.String("replay", "", "replay a machine core dump: rebuild its world and halt at the recorded event count")
		redump     = flag.String("redump", "", "with -replay: re-dump the halted machine to this path (differential check)")

		chaosSchedule = flag.String("chaos-schedule", "", "run one chaos fault schedule against the selected world (\"gen\" = derive one from the seed); red exits 1")
		chaosSeeds    = flag.Int("chaos-seeds", 0, "fan N seeded chaos schedules across the scenario matrix; any red exits 1")
		chaosOut      = flag.String("chaos-out", "", "with -chaos-seeds: write the matrix summary JSON here")
	)
	flag.Parse()

	mode, reads := "the VFS metadata workload", "cores clients seconds seed sched trace"
	var run func() int
	switch {
	case *replay != "":
		mode, reads = "a -replay run", "replay redump"
		run = func() int { return replayDump(*replay, *redump) }
	case *chaosSeeds > 0:
		mode, reads = "a -chaos-seeds sweep", "chaos-seeds chaos-out seed dump-on-fail"
		run = func() int { return runChaosSweep(*chaosSeeds, *seed, *dumpOnFail, *chaosOut) }
	case *scenario != "" || *chaosSchedule != "":
		mode, reads = "a -scenario or -chaos-schedule run", "scenario chaos-schedule stats-every cores shards clients requests readpct keys logblocks replicas replica-reads loss fail-writes fail-shard machines rf seed dump-on-fail"
		run = func() int {
			return runWorld(dump.Config{
				Scenario: *scenario, Cores: *cores, Shards: *shards, Clients: *clients,
				Requests: *requests, ReadPct: *readPct, Keys: *keys,
				LogBlocks: *logBlocks, Replicas: *replicas, ReplicaReads: *replReads, Loss: *loss,
				FailWrites: *failWrites, FailShard: *failShard, Machines: *machines, RF: *rf,
			}, *seed, *chaosSchedule, *dumpOnFail, *statsEvery)
		}
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(reads), f.Name) {
			fmt.Fprintf(os.Stderr, "chanos-sim: -%s: %s does not read it\n", f.Name, mode)
			os.Exit(2)
		}
	})
	if run != nil {
		os.Exit(run())
	}

	scheds := map[string]func() core.Scheduler{
		"rr":       func() core.Scheduler { return &sched.RoundRobin{} },
		"random":   func() core.Scheduler { return sched.NewRandom(*seed) },
		"least":    func() core.Scheduler { return &sched.LeastLoaded{} },
		"locality": func() core.Scheduler { return &sched.Locality{} },
		"steal":    func() core.Scheduler { return sched.NewWorkStealing(*seed) },
	}
	mk, ok := scheds[*policy]
	if !ok {
		fmt.Fprintf(os.Stderr, "chanos-sim: -sched %q: unknown placement policy (have: rr, random, least, locality, steal)\n", *policy)
		os.Exit(2)
	}
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(*cores))
	var collector *trace.Collector
	cfg := core.Config{Seed: *seed, Sched: mk()}
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

// runWorld checks cfg, then runs its world under the chaos schedule
// spec or, with none, as a scenario that prints its full report. It
// returns 2 for a refused config, before anything boots, and 1 for a
// stall, a conservation break, an errored or lost request with no fault
// injected, or a fault armed for a dump that never tripped one.
func runWorld(cfg dump.Config, seed uint64, spec, dumpDir string, statsEvery float64) int {
	world, _, _ := cfg.Shape()
	err := cfg.Check()
	switch {
	case world != dump.ScenarioKVLoad && world != dump.ScenarioCluster:
		err = fmt.Errorf("-scenario %q: have kvload, cluster", cfg.Scenario)
	case err == nil && statsEvery > 0 && (spec != "" || world == dump.ScenarioCluster):
		err = fmt.Errorf("-stats-every: only a kvload scenario run prints a live line, not a cluster or a chaos run")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return 2
	}
	if spec != "" {
		return runChaosSchedule(spec, cfg, seed, dumpDir)
	}

	var w dump.Scenario
	if world == dump.ScenarioCluster {
		w = dump.BuildCluster(seed, cfg)
	} else {
		w = dump.Build(seed, cfg)
	}
	defer w.Close()
	d := w.Driver()
	if dumpDir != "" {
		d.C.OnFailStop(func(dd *dump.Dump) { writeDump(dumpDir, dd) })
	}
	var r *dump.Report
	var lost uint64
	switch w := w.(type) {
	case *dump.World:
		r = runKVLoad(w, statsEvery)
	case *dump.ClusterWorld:
		r = runCluster(w)
		lost = w.Pool.Lost
	}
	for _, b := range r.ConservationBad {
		fmt.Printf("  CONSERVATION VIOLATED: %s\n", b)
	}
	// A fail-stop dumped the instant it happened; a conservation break
	// or a stall dumps now.
	tripped := d.C.Dumped()
	switch {
	case dumpDir == "" || tripped:
	case len(r.ConservationBad) > 0:
		writeDump(dumpDir, d.C.Snapshot("invariant: telemetry conservation violated"))
	case r.Stalled:
		writeDump(dumpDir, d.C.Snapshot(fmt.Sprintf("stall: fleet made no progress for %d slices", d.StallSlices())))
	}
	if cfg.FailWrites > 0 && dumpDir != "" && !tripped {
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

// runKVLoad runs a kvload world and prints its report.
func runKVLoad(w *dump.World, statsEvery float64) *dump.Report {
	cfg, sys, kv, sd := w.Config(), w.Sys, w.KV, w.SD
	mode := "local-only durability"
	if len(w.Repls) > 0 {
		mode = "quorum replication to a second machine"
		if cfg.ReplicaReads {
			mode += " + bounded-staleness replica reads"
		}
	}
	fmt.Printf("chanos-sim: scenario kvload, %d cores, %d store shards, %d net shards, %d clients, %d keys, %d%% reads, seed %d, %s\n",
		cfg.Cores, kv.Shards(), w.Stk.Shards(), cfg.Clients, cfg.Keys, cfg.ReadPct, w.C.Seed, mode)
	if cfg.FailWrites > 0 {
		fmt.Printf("  fault: next %d write completions on shard %d's log device will fail\n",
			cfg.FailWrites, cfg.FailShard)
	}

	// The live line reads the snapshot the STATS wire verb serves, in
	// host context between slices: it costs the machine no cycles.
	if statsEvery > 0 {
		stride := int(sys.Cycles(statsEvery/1e3)/w.Slice()) + 1
		var lastResp, lastHits, lastMisses uint64
		lastAt := sys.Now()
		w.OnSlice = func(i int) {
			if (i+1)%stride != 0 {
				return
			}
			stc := sd.SnapshotNow().Service("store")
			hits, misses := stc.Total("CacheHits"), stc.Total("CacheMisses")
			hr := 0.0
			if d := (hits - lastHits) + (misses - lastMisses); d > 0 {
				hr = float64(hits-lastHits) / float64(d)
			}
			fmt.Printf("  [%7.2f ms] state=%-11s ops/sec=%-9.0f hit=%3.0f%% repl-lag=%-6d in-flight=%d\n",
				sys.Seconds(sys.Now())*1e3, kv.Lifecycle(),
				float64(w.Pool.Responses-lastResp)/sys.Seconds(sys.Now()-lastAt), hr*100,
				stc.Total("ReplLag"), stc.Total("WritesInFlight"))
			lastResp, lastHits, lastMisses, lastAt = w.Pool.Responses, hits, misses, sys.Now()
		}
	}

	r := w.Run()
	pool := r.Pool
	if r.Stalled {
		fmt.Printf("\n  stalled: no responses for %.1f simulated ms; giving up\n",
			float64(w.StallSlices())*sys.Seconds(w.Slice())*1e3)
	}

	// One telemetry snapshot: the folded view a STATS scrape returns.
	snap := sd.SnapshotNow()
	kc := kv.Counters()
	elapsed := sys.Seconds(sys.Now())
	us := func(cycles uint64) float64 { return sys.Seconds(cycles) * 1e6 }
	hr := 0.0
	if kc.CacheHits+kc.CacheMisses > 0 {
		hr = float64(kc.CacheHits) / float64(kc.CacheHits+kc.CacheMisses)
	}
	var diskWrites, diskBytes uint64
	for _, d := range kv.Disks() {
		diskWrites += d.Writes
		diskBytes += d.BytesMoved
	}
	fmt.Printf("\n  served       %8d requests over %d connections (%d not-found, %d errors)\n",
		pool.Responses, pool.Completed, r.NotFound, r.Errs)
	fmt.Printf("  elapsed      %8.2f simulated ms (%.2f ms prefill)  (%.0f ops/sec)\n",
		elapsed*1e3, sys.Seconds(r.PrefillCycles)*1e3, float64(pool.Responses)/elapsed)
	fmt.Printf("  latency      %8.1f us p50   %.1f us p99\n",
		us(pool.Lat.Percentile(50)), us(pool.Lat.Percentile(99)))
	fmt.Printf("  store        %8d gets (%.0f%% cache hits), %d puts acked durable, %d deletes\n",
		kc.Gets, hr*100, kc.AckedWrites, kc.Deletes)
	if fl := snap.Service("store").TotalHist("FlushLatency"); fl != nil && fl.N > 0 {
		fmt.Printf("  log          %8d flushes (p50 %.1f us, p99 %.1f us), %d disk writes, %d MB moved\n",
			kc.FlushesDone, us(fl.P50), us(fl.P99), diskWrites, diskBytes>>20)
	} else {
		fmt.Printf("  log          %8d flushes, %d disk writes, %d MB moved\n",
			kc.FlushesDone, diskWrites, diskBytes>>20)
	}
	fmt.Printf("  compaction   %8d runs, %d records copied, %d writes refused (log full), live ratio %.2f\n",
		kc.CompactionsDone, kc.CompactedRecords, kc.LogFull, kv.LiveRatio())
	stc := w.Stk.Counters()
	fmt.Printf("  wire         %8d pkts in, %d pkts out, %d retransmits, %d window-deferred, %d rx drops\n",
		w.NW.ToHost, w.NW.ToClient, stc.Retransmits+w.NW.Retransmits, w.NW.WindowDeferred, w.NIC.Counters().RxDrops)
	// The lifecycle state always prints: "solo" (never replicated) and
	// "failed-over" (degraded) are different situations.
	if len(w.Repls) == 0 {
		fmt.Printf("  replication  state=%s (no replica attached; acks are local-flush only)\n", kv.Lifecycle())
	} else {
		var rWrites uint64
		rm := w.Repls[0]
		for _, d := range rm.KV.Disks() {
			rWrites += d.Writes
		}
		rc := rm.KV.Counters()
		fmt.Printf("  replication  state=%s; %d batches (%d records) shipped, %d acks, %d adverts; %d shard heals, %d detaches\n",
			kv.Lifecycle(), kc.ReplBatches, kc.ReplRecords, kc.ReplAcks, kc.ReplAdverts, kc.ReplHeals, kc.ReplDetached)
		fmt.Printf("  replica      %8d applied (%d stale), %d disk writes\n",
			rc.ReplApplied, rc.ReplStale, rWrites)
		// One row per replica slot: a healing or lagging minority must
		// be visible even while the aggregate reads "quorum".
		for _, rs := range kv.LifecycleReport() {
			fmt.Printf("    slot %d     state=%-9s port %d; %d/%d shards synced, %d armed, max lag %d\n",
				rs.Slot, rs.State, rs.Port, rs.Synced, rs.Shards, rs.Armed, rs.MaxLag)
		}
		if r.RPool != nil {
			fmt.Printf("  repl reads   %8d GETs served over %d conns (%d refused: lag/sync), %d lag-refused, %d durability waits, p99 %.1f us\n",
				r.ReplicaGets, r.RPool.Completed, r.ReplicaRefused, rc.RefusedSyncing+rc.RefusedLag, rc.ReplicaWaits, us(r.RPool.Lat.Percentile(99)))
		}
	}
	if len(r.ConservationBad) == 0 {
		fmt.Printf("  telemetry    snapshot seq=%d at %.2f ms; conservation laws hold\n",
			snap.Seq, sys.Seconds(snap.AtCycles)*1e3)
	}
	return r
}

// runCluster runs a cluster world and prints its report.
func runCluster(w *dump.ClusterWorld) *dump.Report {
	cfg := w.Config()
	fmt.Printf("chanos-sim: scenario cluster, %d nodes x (1 primary + %d replicas) = %d machines, %d cores each, %d clients, %d keys, %d%% reads, seed %d\n",
		cfg.Machines, cfg.RF, cfg.Machines*(1+cfg.RF), cfg.Cores, cfg.Clients, cfg.Keys, cfg.ReadPct, w.C.Seed)

	r := w.Run()
	pool := w.Pool
	elapsed := w.Cl.Nodes[0].M.Seconds(w.Cl.Eng.Now())
	fmt.Printf("\n  served       %8d requests (%.0f ops/sec); %d redirects followed, %d map refreshes, %d retries, %d lost, %d errors\n",
		pool.Ops, float64(pool.Ops)/elapsed, pool.Moved, pool.Refreshes, pool.Failed, pool.Lost, r.Errs)
	fmt.Printf("  elapsed      %8.2f simulated ms, %d counted events on one engine\n",
		elapsed*1e3, w.Cl.Eng.Fired())
	if r.Stalled {
		fmt.Println("  stalled: the fleet stopped making progress")
	}
	for _, n := range w.Cl.Nodes {
		kc := n.KV.Counters()
		fmt.Printf("  node %d       state=%-11s map v%d; %d gets, %d puts acked (%d quorum), %d redirects issued\n",
			n.ID, n.KV.Lifecycle(), w.Cl.Map(n.ID).Version,
			kc.Gets, kc.AckedWrites, kc.AckedQuorum, n.Moved)
		for _, rs := range n.KV.LifecycleReport() {
			fmt.Printf("    replica %d  state=%-9s port %d; %d/%d shards synced, %d armed, max lag %d\n",
				rs.Slot, rs.State, rs.Port, rs.Synced, rs.Shards, rs.Armed, rs.MaxLag)
		}
	}
	if len(r.ConservationBad) == 0 {
		fmt.Printf("  telemetry    conservation laws hold on all %d nodes\n", len(w.Cl.Nodes))
	}
	return r
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
// identical timeline and re-runs the identical phases. Either replay
// refuses a dump that fails validation, naming each problem (exit 1).
func replayDump(path, redumpPath string) int {
	d, err := dump.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
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
