package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/store"
)

func init() {
	register("E16", "store replication: per-shard quorum acks across machines, primary-loss survival", e16Repl)
}

// e16Result is one measured replication-mode configuration.
type e16Result struct {
	shards      int
	opsPerSec   float64
	p99Us       float64
	ackedWrites uint64
	replBatches uint64
	replRecords uint64
}

const (
	e16ValBytes = 256
	e16NumKeys  = 512
)

// e16World is the serving topology shared by the cost sweep and the
// kill runs: the E15 vertical slice — client fleet on the wire → NIC →
// netstack → store shard → log device — plus, in quorum mode, a second
// simulated machine on the far side of an inter-machine wire receiving
// every store shard's log records.
type e16World struct {
	w  *world
	m  *store.Machine // Repls[0] is the replica in quorum mode
	wl *store.Workload
}

// e16Boot builds the topology, prefills the keyspace, and leaves the
// client fleet un-started (callers attach their own pool so the kill
// runs can track acknowledgements).
func e16Boot(cores, shards, clients, readPct int, seed uint64, quorum bool) *e16World {
	var replicas []store.ReplicaMachineParams
	if quorum {
		replicas = append(replicas, kvReplica(seed, 0))
	}
	w, m := kvMachine(cores, shards, seed, nil, replicas...)
	wl := store.NewWorkload(seed, clients, e16NumKeys, readPct, e16ValBytes)
	kvPrefill(w, wl, m.KV)
	return &e16World{w: w, m: m, wl: wl}
}

// e16Run measures one replication mode: the throughput/p99 delta
// between local-only and quorum acks is the price of surviving machine
// loss.
func e16Run(o Options, cores, shards, clients, readPct int, window sim.Time, quorum bool) e16Result {
	ew := e16Boot(cores, shards, clients, readPct, o.seed(), quorum)
	defer ew.m.Shutdown()
	pool := net.NewClientPool(ew.m.NW, net.ClientParams{
		Port:        kvPort,
		Clients:     clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        o.seed(),
		MakeReq:     ew.wl.MakeReq,
	})
	ew.w.rt.RunFor(window)
	c := ew.m.KV.Counters()
	return e16Result{
		shards:      ew.m.KV.Shards(),
		opsPerSec:   ew.w.opsPerSec(pool.Responses, window),
		p99Us:       ew.w.m.Seconds(pool.Lat.Percentile(99)) * 1e6,
		ackedWrites: c.AckedWrites,
		replBatches: c.ReplBatches,
		replRecords: c.ReplRecords,
	}
}

// e16KillResult is one seeded primary-kill run.
type e16KillResult struct {
	killAtMs  float64
	ackedPuts uint64
	tracked   int
	survived  int
	lost      int
	replayed  uint64
}

// e16Kill runs the quorum topology under a mixed wire workload,
// tracking every PUT the client fleet saw acknowledged, then kills the
// primary machine at killAt (only the replica's platters survive) and
// boots a store from them. The contract the table gates on: zero
// acknowledged writes lost — every tracked key recovers at at least its
// acknowledged version.
func e16Kill(o Options, seed uint64, killAt sim.Time) e16KillResult {
	const (
		cores   = 16
		shards  = 4
		clients = 64
		readPct = 50
	)
	ew := e16Boot(cores, shards, clients, readPct, seed, true)
	// Track acknowledged PUTs: the closed loop guarantees a client's
	// response is observed before its next request is drawn, so the last
	// request drawn per client is the one each response answers.
	type lastReq struct {
		op  store.WireOp
		key string
	}
	last := make([]lastReq, clients)
	acked := make(map[string]uint64)
	var ackedPuts uint64
	net.NewClientPool(ew.m.NW, net.ClientParams{
		Port:        kvPort,
		Clients:     clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        seed,
		MakeReq: func(c, r int) (core.Msg, int) {
			payload, bytes := ew.wl.MakeReq(c, r)
			kr := payload.(store.KVRequest)
			last[c] = lastReq{op: kr.Op, key: kr.Key}
			return payload, bytes
		},
		OnResp: func(c, r int, payload core.Msg) {
			resp, ok := payload.(store.KVResponse)
			if !ok || !resp.OK || last[c].op != store.WPut {
				return
			}
			ackedPuts++
			if resp.Ver > acked[last[c].key] {
				acked[last[c].key] = resp.Ver
			}
		},
	})
	killBase := ew.w.eng.Now()
	ew.w.rt.RunFor(killAt)

	// The primary machine is gone. Nothing of it survives — the audit
	// store boots from the REPLICA's platters alone.
	replica := ew.m.Repls[0].KV
	platters, params := replica.Platters(), replica.P
	killMs := ew.w.m.Seconds(ew.w.eng.Now()-killBase) * 1e3
	ew.m.Shutdown()

	a := store.Audit(cores, seed+9, params, platters, acked)
	return e16KillResult{killAtMs: killMs, ackedPuts: ackedPuts, tracked: len(acked),
		survived: a.Survived, lost: a.Lost, replayed: a.Replayed}
}

func e16Repl(o Options) []*stats.Table {
	coreCounts := []int{4, 16, 64}
	clients := 128
	window := sim.Time(12_000_000)
	kills := 3
	killAt := sim.Time(8_000_000)
	if o.Quick {
		coreCounts = []int{4, 16}
		clients = 64
		window = 4_000_000
		kills = 2
		killAt = 4_000_000
	}

	tb := stats.NewTable("E16 / replication cost: local-only vs quorum acks (store shards = cores, 70% reads)",
		"cores", "mode", "ops/sec", "p99 latency (us)", "acked writes", "repl batches", "repl records")
	for _, c := range coreCounts {
		for _, quorum := range []bool{false, true} {
			mode := "local"
			if quorum {
				mode = "quorum"
			}
			r := e16Run(o, c, c, clients, 70, window, quorum)
			tb.AddRow(fmt.Sprint(c), mode, stats.F(r.opsPerSec), stats.F(r.p99Us),
				fmt.Sprint(r.ackedWrites), fmt.Sprint(r.replBatches), fmt.Sprint(r.replRecords))
		}
	}
	tb.Note("quorum: a write acks only when the primary's flush AND the replica machine's append are both durable")
	tb.Note("the p99 delta is the price of surviving machine loss: one inter-machine RTT plus the replica's group commit")

	kb := stats.NewTable("E16b / acked-write survival: seeded primary kills under quorum replication",
		"seed", "kill at (ms)", "acked puts", "tracked keys", "survived", "lost", "replica replayed")
	for i := 0; i < kills; i++ {
		seed := o.seed() + uint64(i)*101
		r := e16Kill(o, seed, killAt)
		kb.AddRow(fmt.Sprint(seed), fmt.Sprintf("%.2f", r.killAtMs), fmt.Sprint(r.ackedPuts),
			fmt.Sprint(r.tracked), fmt.Sprint(r.survived), fmt.Sprint(r.lost), fmt.Sprint(r.replayed))
	}
	kb.Note("the primary machine is destroyed at the kill instant; the audit store boots from the replica's platters alone")
	kb.Note("contract: lost must be 0 — every client-acknowledged PUT recovers at >= its acknowledged version")
	return []*stats.Table{tb, kb}
}
