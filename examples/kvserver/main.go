// Kvserver: the paper's architecture carrying the ROADMAP's first
// stateful workload — a key-value store serving a fleet of remote
// clients. Every hop is a message: requests cross the wire, land on the
// NIC queue RSS picks, are routed to the netstack shard owning the
// connection, rise into a per-connection handler thread, drop into the
// store shard owning the key, and (for writes) ride a group-commit
// flush to the shard's private log device before the acknowledgement
// travels all the way back. No locks anywhere on that path.
//
// The world boots through the internal/dump kvload scenario, which is
// the replay contract: with -dump-on-fail DIR, any shard fail-stop,
// stall, or conservation violation writes a machine core dump plus the
// one-command `chanos-sim -replay` line that reproduces it exactly.
//
// Run: go run ./examples/kvserver [-clients 128] [-requests 20000] [-readpct 70] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"path/filepath"

	"chanos/internal/dump"
)

func main() {
	var (
		cores      = flag.Int("cores", 64, "simulated cores")
		clients    = flag.Int("clients", 128, "closed-loop clients on the wire")
		requests   = flag.Int("requests", 20_000, "client requests to serve")
		readPct    = flag.Int("readpct", 70, "share of requests that are GETs (0-100)")
		keys       = flag.Int("keys", 4096, "keyspace size")
		seed       = flag.Uint64("seed", 7, "simulation seed")
		loss       = flag.Float64("loss", 0, "wire packet loss probability (each direction)")
		logBlocks  = flag.Int("logblocks", 0, "per-shard log-region blocks (small values force compaction; 0 = default 8192)")
		replicas   = flag.Int("replicas", 0, "replica machines (0 = local-only acks, 1 = quorum: writes ack only when durable on both machines)")
		machines   = flag.Int("machines", 0, "cluster mode: N serving nodes routed by a shard map (0 = single machine)")
		rf         = flag.Int("rf", 0, "cluster mode: replica machines per node, majority-quorum acks")
		replReads  = flag.Bool("replica-reads", false, "with -replicas 1: serve a second GET-only fleet from the replica's bounded-staleness read port")
		statsEvery = flag.Float64("stats-every", 0, "print a live telemetry line every N simulated ms (0 = off)")
		failWrites = flag.Int("fail-writes", 0, "fault injection: fail the next N log-device write completions after prefill")
		failShard  = flag.Int("fail-shard", 0, "which shard's log device the injected failures hit")
		dumpOnFail = flag.String("dump-on-fail", "", "write a machine core dump into this directory on any fail-stop, stall or invariant violation")
	)
	flag.Parse()
	if *machines > 1 {
		runCluster(*machines, *rf, *cores, *clients, *requests, *readPct, *keys, *seed)
		return
	}
	if *rf > 0 {
		fmt.Println("kvserver: -rf needs -machines N; ignoring")
	}
	if *replReads && *replicas == 0 {
		fmt.Println("kvserver: -replica-reads needs -replicas 1; ignoring")
		*replReads = false
	}
	if *replicas > 1 {
		fmt.Println("kvserver: only one replica machine is supported; running with 1")
		*replicas = 1
	}

	w := dump.Build(*seed, dump.Config{
		Cores: *cores, Clients: *clients, Requests: *requests,
		ReadPct: *readPct, Keys: *keys, LogBlocks: *logBlocks,
		Replicas: *replicas, ReplicaReads: *replReads, Loss: *loss,
		FailWrites: *failWrites, FailShard: *failShard,
	})
	defer w.Close()
	sys, kv, st, sd := w.Sys, w.KV, w.Stk, w.SD

	// Arm automatic core dumps: a shard fail-stop captures the machine
	// the instant it happens (an engine observer event, invisible to the
	// replay clock); stalls and conservation violations dump from host
	// context after the run loop below.
	writeDump := func(d *dump.Dump) {
		path := filepath.Join(*dumpOnFail, d.FileName())
		if err := dump.WriteFile(path, d); err != nil {
			fmt.Printf("  dump FAILED: %v\n", err)
			return
		}
		fmt.Printf("  dump written: %s\n", path)
		fmt.Printf("    reason: %s\n", d.Reason)
		fmt.Printf("    replay: %s\n", dump.ReplayCommand(path))
	}
	if *dumpOnFail != "" {
		w.C.OnFailStop(writeDump)
	}

	mode := "local-only durability"
	if len(w.Repls) > 0 {
		mode = "quorum replication to a second machine"
		if *replReads {
			mode += " + bounded-staleness replica reads"
		}
	}
	fmt.Printf("kvserver: %d cores, %d store shards, %d net shards, %d clients, %d keys, %d%% reads, seed %d, %s\n",
		*cores, kv.Shards(), st.Shards(), *clients, *keys, *readPct, *seed, mode)
	if *failWrites > 0 {
		fmt.Printf("kvserver: fault armed: next %d write completions on shard %d's log device will fail\n",
			*failWrites, *failShard)
	}

	// With -stats-every, a live telemetry line prints between run slices
	// (host context; the collector costs the machine zero simulated
	// cycles): the same snapshot path the STATS wire verb serves.
	slice := w.Slice()
	statsStride := 0
	if *statsEvery > 0 {
		statsStride = int(sys.Cycles(*statsEvery/1e3)/slice) + 1
	}
	lastResp, lastHits, lastMisses := uint64(0), uint64(0), uint64(0)
	lastAt := sys.Now()
	w.OnSlice = func(i int) {
		if statsStride == 0 || (i+1)%statsStride != 0 {
			return
		}
		snap := sd.SnapshotNow()
		stc := snap.Service("store")
		hits, misses := stc.Total("CacheHits"), stc.Total("CacheMisses")
		hr := 0.0
		if d := (hits - lastHits) + (misses - lastMisses); d > 0 {
			hr = float64(hits-lastHits) / float64(d)
		}
		secs := sys.Seconds(sys.Now() - lastAt)
		fmt.Printf("  [%7.2f ms] state=%-11s ops/sec=%-9.0f hit=%3.0f%% repl-lag=%-6d in-flight=%d\n",
			sys.Seconds(sys.Now())*1e3, kv.Lifecycle(),
			float64(w.Pool.Responses-lastResp)/secs, hr*100,
			stc.Total("ReplLag"), stc.Total("WritesInFlight"))
		lastResp, lastHits, lastMisses, lastAt = w.Pool.Responses, hits, misses, sys.Now()
	}

	// Prefill the keyspace, then drive the shared seeded workload
	// generator (same one experiment E15 measures): two-tier key
	// popularity, mixed GET/PUT, responses checked as they arrive.
	r := w.Run()
	pool := r.Pool
	prefillMs := sys.Seconds(r.PrefillCycles) * 1e3
	if r.Stalled {
		fmt.Printf("\n  stalled: no responses for %.1f simulated ms; giving up\n",
			float64(w.StallSlices())*sys.Seconds(slice)*1e3)
	}

	// The final report reads one telemetry snapshot — the same folded
	// view a live STATS scrape would have returned.
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
		elapsed*1e3, prefillMs, float64(pool.Responses)/elapsed)
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
	stc := st.Counters()
	fmt.Printf("  wire         %8d pkts in, %d pkts out, %d retransmits, %d window-deferred, %d rx drops\n",
		w.NW.ToHost, w.NW.ToClient, stc.Retransmits+w.NW.Retransmits, w.NW.WindowDeferred, w.NIC.Counters().RxDrops)
	// The lifecycle state prints unconditionally: "solo" (never
	// replicated) and "failed-over"/"syncing" (degraded) are different
	// operational situations, and a 0/0 replication line used to make
	// them indistinguishable.
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
		// One row per attached replica machine: a healing or lagging
		// minority must be visible even while the aggregate reads
		// "quorum".
		for _, rs := range kv.LifecycleReport() {
			fmt.Printf("    slot %d     state=%-9s port %d; %d/%d shards synced, %d armed, max lag %d\n",
				rs.Slot, rs.State, rs.Port, rs.Synced, rs.Shards, rs.Armed, rs.MaxLag)
		}
		if r.RPool != nil {
			fmt.Printf("  repl reads   %8d GETs served over %d conns (%d refused: lag/sync), %d lag-refused, %d durability waits, p99 %.1f us\n",
				r.ReplicaGets, r.RPool.Completed, r.ReplicaRefused, rc.RefusedSyncing+rc.RefusedLag, rc.ReplicaWaits, us(r.RPool.Lat.Percentile(99)))
		}
	}
	// Conservation self-check over the final snapshot: every read and
	// write arrival must be accounted for by exactly one terminal counter
	// or in-flight gauge. A violation is an invariant failure — with
	// -dump-on-fail it produces a core dump like any fail-stop.
	if len(r.ConservationBad) > 0 {
		for _, b := range r.ConservationBad {
			fmt.Printf("  CONSERVATION VIOLATED: %s\n", b)
		}
	} else {
		fmt.Printf("  telemetry    snapshot seq=%d at %.2f ms; conservation laws hold\n",
			snap.Seq, sys.Seconds(snap.AtCycles)*1e3)
	}
	if *dumpOnFail != "" && !w.C.Dumped() {
		if len(r.ConservationBad) > 0 {
			writeDump(w.C.Snapshot("invariant: telemetry conservation violated"))
		} else if r.Stalled {
			writeDump(w.C.Snapshot(fmt.Sprintf("stall: fleet made no progress for %d slices", w.StallSlices())))
		}
	}
}

// runCluster is kvserver's -machines mode: N serving nodes, each a
// full machine with rf replica machines under majority-quorum acks,
// routed by a versioned shard map. It boots through the
// dump.ScenarioCluster world, so cluster runs share the single-machine
// replay contract: same (seed, config) → same nine-machine run.
func runCluster(machines, rf, cores, clients, requests, readPct, keys int, seed uint64) {
	w := dump.BuildCluster(seed, dump.Config{
		Machines: machines, RF: rf, Cores: cores, Clients: clients,
		Requests: requests, ReadPct: readPct, Keys: keys,
	})
	defer w.Close()
	cfg := w.Config()
	fmt.Printf("kvserver: cluster of %d nodes x (1 primary + %d replicas) = %d machines, %d cores each, %d clients, %d keys, %d%% reads, seed %d\n",
		cfg.Machines, cfg.RF, cfg.Machines*(1+cfg.RF), cfg.Cores, cfg.Clients, cfg.Keys, cfg.ReadPct, seed)

	r := w.Run()
	pool := w.Pool
	n0 := w.Cl.Nodes[0]
	elapsed := n0.M.Seconds(w.Cl.Eng.Now())
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
	if len(r.ConservationBad) > 0 {
		for _, b := range r.ConservationBad {
			fmt.Printf("  CONSERVATION VIOLATED: %s\n", b)
		}
	} else {
		fmt.Printf("  telemetry    conservation laws hold on all %d nodes\n", len(w.Cl.Nodes))
	}
}
