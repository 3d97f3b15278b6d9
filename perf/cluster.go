package main

import (
	"fmt"
	"time"

	"chanos/internal/cluster"
	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
	"chanos/internal/trace"
)

// clusterSlice is ClusterWorld.Run's drive slice, in cycles.
const clusterSlice = sim.Time(100_000)

// bootCluster builds a cluster world with dump.BuildCluster and runs it
// up to the first request: wait for every node's replica quorum, then
// write each key at its owner. These are the first two phases of
// ClusterWorld.Run; the bench repeats them because Run goes on to drive
// cluster.Pool, whose clients record no latency.
func bootCluster(seed uint64, cfg dump.Config) *dump.ClusterWorld {
	w := dump.BuildCluster(seed, cfg)
	cl := w.Cl
	for step := 0; step < 2_000; step++ {
		ready := true
		for _, n := range cl.Nodes {
			if !n.KV.ReplCaughtUp() {
				ready = false
			}
		}
		if ready {
			break
		}
		cl.RunFor(clusterSlice)
	}
	valBytes := w.Config().ValBytes
	filled := 0
	for _, n := range cl.Nodes {
		n.RT.Boot(fmt.Sprintf("prefill.%d", n.ID), func(t *core.Thread) {
			for _, key := range w.Keys() {
				if cl.Map(n.ID).NodeFor(key) != n.ID {
					continue
				}
				val := make([]byte, valBytes)
				copy(val, key)
				n.KV.Put(t, key, val)
			}
			filled++
		})
	}
	for filled < len(cl.Nodes) {
		cl.RunFor(clusterSlice)
	}
	return w
}

// runCluster is one repetition of the cluster workload: boot, then
// drive the bench's routed fleet to the request count.
func runCluster(wl *workload, seed uint64, traced bool) *rep {
	r := &rep{cyclesPerSec: machine.DefaultParams(1).CyclesPerSec}
	t0 := time.Now()
	w := bootCluster(seed, wl.cfg)
	defer w.Close()
	r.setup = time.Since(t0).Seconds()

	eng := w.Cl.Eng
	var views []machineView
	var kvs []*store.Store
	for _, n := range w.Cl.Nodes {
		views = append(views, machineView{rt: n.RT, k: n.K, nic: n.NIC, stk: n.Stk, kv: n.KV})
		kvs = append(kvs, n.KV)
	}
	var before counters
	if traced {
		r.layers = map[string]float64{}
		before = readCounters(eng, views)
	}
	m := startMeter(eng, traced)
	f, maxLag, stalled := driveFleet(w, seed, wl.cfg.Requests, float64(r.cyclesPerSec)/1e6)
	m.stop(r)
	r.ops, r.failed, r.lat = f.ops, f.errs+f.lost, f.lat
	r.attempted = r.ops + r.failed
	var bad []string
	for _, n := range w.Cl.Nodes {
		bad = append(bad, n.SD.SnapshotNow().Conservation()...)
	}
	r.checkDrive(stalled, bad)
	if !traced {
		return r
	}

	layerCounters(r.layers, before, readCounters(eng, views), r.ops)
	flushLatency(r, eng, kvs...)
	us := float64(r.cyclesPerSec) / 1e6
	r.layers["repl.max_lag"] = float64(maxLag)
	r.layers["cluster.get_p99_us"] = float64(pct(sortedCopy(f.getLat), 99)) / us
	r.layers["cluster.put_p99_us"] = float64(pct(sortedCopy(f.putLat), 99)) / us
	r.layers["cluster.redirects_per_kop"] = ratio(1000*float64(f.moved), float64(f.ops))
	r.layers["cluster.retries_per_kop"] = ratio(1000*float64(f.failed), float64(f.ops))
	r.spans = f.spans
	return r
}

// driveFleet starts the bench's fleet on a booted world and drives it
// until it has answered requests, as ClusterWorld.Run drives
// cluster.Pool: fleet seed seed+3, 100k-cycle slices, and a stall after
// 200 slices without a response. After every slice it samples the
// largest replica lag any node reports.
func driveFleet(w *dump.ClusterWorld, seed uint64, requests int, us float64) (f *fleet, maxLag uint64, stalled bool) {
	f = newFleet(w, seed+3, us)
	idle := 0
	for f.ops < uint64(requests) && idle < 200 {
		n := f.ops
		w.Cl.RunFor(clusterSlice)
		for _, node := range w.Cl.Nodes {
			for _, s := range node.KV.LifecycleReport() {
				maxLag = max(maxLag, s.MaxLag)
			}
		}
		if f.ops == n {
			idle++
		} else {
			idle = 0
		}
	}
	return f, maxLag, idle >= 200
}

// fleet is the bench's routed client pool. It mirrors cluster.Pool —
// the same per-client draws from the same seeds, a cached shard map,
// one dial per request, Moved redirects followed and connect failures
// retried within a budget of six — and adds what Pool lacks: each
// request's latency, from draw to final answer, redirects and retries
// included. TestFleetMatchesPool checks the copy: at one seed, a fleet
// drive and ClusterWorld.Run fire the same events and get the same
// responses.
type fleet struct {
	cl      *cluster.Cluster
	keys    []string
	readPct int
	val     []byte
	smap    *cluster.ShardMap
	us      float64 // cycles per µs, for spans

	drawn                          uint64
	ops, moved, failed, lost, errs uint64
	lat, getLat, putLat            []uint64
	spans                          []trace.Event
}

// fleetThink is ClusterWorld.Run's mean think time, in cycles.
const fleetThink = 4_000

// flight is one request in flight through the fleet.
type flight struct {
	id     uint64
	client int
	req    store.KVRequest
	start  sim.Time
}

func newFleet(w *dump.ClusterWorld, seed uint64, us float64) *fleet {
	cfg := w.Config()
	f := &fleet{cl: w.Cl, keys: w.Keys(), readPct: cfg.ReadPct, val: make([]byte, cfg.ValBytes),
		smap: w.Cl.Map(0).Clone(), us: us}
	for i := range f.val {
		f.val[i] = byte('a' + i%26)
	}
	for i := 0; i < cfg.Clients; i++ {
		rng := sim.NewRNG(seed + uint64(i)*0x9e3779b9)
		f.cl.Eng.After(think(rng), func() { f.step(i, rng) })
	}
	return f
}

func think(rng *sim.RNG) uint64 { return fleetThink/2 + rng.Uint64n(fleetThink) }

func (f *fleet) step(client int, rng *sim.RNG) {
	key := f.keys[rng.Uint64n(uint64(len(f.keys)))]
	req := store.KVRequest{Op: store.WPut, Key: key, Val: f.val}
	if int(rng.Uint64n(100)) < f.readPct {
		req = store.KVRequest{Op: store.WGet, Key: key}
	}
	f.drawn++
	q := &flight{id: f.drawn, client: client, req: req, start: f.cl.Eng.Now()}
	f.attempt(q, f.smap.NodeFor(key), 6, rng)
}

func (f *fleet) attempt(q *flight, node, budget int, rng *sim.RNG) {
	eng := f.cl.Eng
	next := func() { eng.After(think(rng), func() { f.step(q.client, rng) }) }
	if budget <= 0 {
		f.lost++
		next()
		return
	}
	n := f.cl.Nodes[node]
	from := eng.Now()
	finished := false
	n.NW.Dial(n.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) { ep.Send(q.req, q.req.WireBytes()) },
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			resp, ok := payload.(store.KVResponse)
			if !ok {
				return
			}
			finished = true
			ep.Close()
			f.span(q, fmt.Sprintf("attempt node%d", node), from)
			if resp.Moved {
				f.moved++
				if resp.MapVer > f.smap.Version {
					f.refreshMap(resp.Owner)
				}
				f.attempt(q, resp.Owner, budget-1, rng)
				return
			}
			if resp.Err != "" {
				f.errs++
			} else {
				f.ops++
				l := eng.Now() - q.start
				f.lat = append(f.lat, l)
				if q.req.Op == store.WGet {
					f.getLat = append(f.getLat, l)
				} else {
					f.putLat = append(f.putLat, l)
				}
				f.span(q, "request", q.start)
			}
			next()
		},
		OnFail: func(*net.Endpoint) {
			if finished {
				return
			}
			finished = true
			f.failed++
			eng.After(f.cl.Nodes[0].NW.P.RTOCycles*4+think(rng), func() {
				f.attempt(q, f.smap.NodeFor(q.req.Key), budget-1, rng)
			})
		},
	})
}

// refreshMap fetches node's installed map on a side connection and
// adopts it if newer.
func (f *fleet) refreshMap(node int) {
	n := f.cl.Nodes[node]
	req := store.KVRequest{Op: store.WMap}
	n.NW.Dial(n.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) { ep.Send(req, req.WireBytes()) },
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			if resp, ok := payload.(store.KVResponse); ok && resp.OK {
				if m, err := cluster.DecodeMap(resp.Val); err == nil && m.Version > f.smap.Version {
					f.smap = m
				}
			}
			ep.Close()
		},
	})
}

// span records a sampled request's span ending now (1 request in 64).
func (f *fleet) span(q *flight, name string, from sim.Time) {
	if q.id%64 != 0 {
		return
	}
	now := f.cl.Eng.Now()
	f.spans = append(f.spans, trace.Event{
		Name: name, Cat: "cluster", Ph: "X", TS: float64(from) / f.us, Dur: float64(now-from) / f.us,
		PID: 1, TID: q.client, Args: map[string]any{"req": q.id, "op": q.req.Op.String()},
	})
}
