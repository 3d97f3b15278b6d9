// The cluster-aware client fleet: closed-loop clients that hold a
// cached shard map, dial the node they believe owns each key, and
// follow Moved redirects when the cluster has moved on without them —
// refreshing the cached map when a redirect advertises a newer
// version. Driven entirely from the wire side (engine context), like
// net.ClientPool, so the measured machines pay only for serving; the
// audit ledger (AckedPuts) is the ground truth migration and kill
// tests judge acked-write survival against.
package cluster

import (
	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// PoolParams describes the fleet.
type PoolParams struct {
	Clients int
	// Keys is the keyspace; each request draws one uniformly.
	Keys []string
	// ReadPct of requests are GETs; the rest PUT (ValBytes values).
	ReadPct  int
	ValBytes int
	// ThinkCycles is the mean think time between requests; draws are
	// uniform in [T/2, 3T/2). 0 = minimal.
	ThinkCycles uint64
	Seed        uint64
}

// poolRetries bounds redirect-following and redials per request.
const poolRetries = 6

// Pool runs the fleet and accumulates results.
type Pool struct {
	c *Cluster
	p PoolParams

	Ops       uint64 // requests answered (terminal, success)
	Moved     uint64 // Moved redirects followed
	Refreshes uint64 // cached-map refreshes triggered by redirects
	Failed    uint64 // connect/retry failures (non-terminal)
	Lost      uint64 // requests abandoned after the retry budget
	Errs      uint64 // responses carrying a store error

	// AckedPuts is the audit ledger. A write in it must survive any
	// single machine loss the cluster claims to tolerate.
	AckedPuts store.Ledger

	smap    *ShardMap // the fleet's shared cached map
	val     []byte
	stopped bool
}

// Stop retires the fleet: each client finishes the request it has in
// flight (redirect chases and cool-off retries included) and does not
// draw another. Host-side drive-loop policy, like the drive loop's
// stall budget — call it between run slices, and the retirement instant
// is as deterministic as the caller's slice boundary.
func (pl *Pool) Stop() { pl.stopped = true }

// NewPool starts the fleet against c, seeded with node 0's current
// map. Clients begin dialling immediately with staggered offsets.
func (c *Cluster) NewPool(p PoolParams) *Pool {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ValBytes <= 0 {
		p.ValBytes = 128
	}
	pl := &Pool{c: c, p: p, AckedPuts: store.Ledger{},
		smap: c.Nodes[0].smap.Clone(), val: make([]byte, p.ValBytes)}
	for i := range pl.val {
		pl.val[i] = byte('a' + i%26)
	}
	for i := 0; i < p.Clients; i++ {
		rng := sim.NewRNG(p.Seed + uint64(i)*0x9e3779b9)
		c.Eng.After(pl.think(rng), func() { pl.step(rng) })
	}
	return pl
}

func (pl *Pool) think(rng *sim.RNG) uint64 {
	t := pl.p.ThinkCycles
	if t == 0 {
		return 1
	}
	return t/2 + rng.Uint64n(t)
}

// step issues one request: draw it, route it by the cached map, chase
// redirects within the budget, then reschedule — the closed loop.
func (pl *Pool) step(rng *sim.RNG) {
	if pl.stopped {
		return
	}
	key := pl.p.Keys[rng.Uint64n(uint64(len(pl.p.Keys)))]
	req := store.KVRequest{Op: store.WPut, Key: key, Val: pl.val}
	if int(rng.Uint64n(100)) < pl.p.ReadPct {
		req = store.KVRequest{Op: store.WGet, Key: key}
	}
	pl.attempt(req, pl.smap.NodeFor(key), poolRetries, rng)
}

// attempt runs one request against one node; a Moved redirect or a
// connect failure re-attempts elsewhere until the budget runs out.
func (pl *Pool) attempt(req store.KVRequest, node int, budget int, rng *sim.RNG) {
	if budget <= 0 {
		pl.Lost++
		pl.c.Eng.After(pl.think(rng), func() { pl.step(rng) })
		return
	}
	n := pl.c.Nodes[node]
	finished := false
	n.NW.Dial(n.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) {
			ep.Send(req, req.WireBytes())
		},
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			resp, ok := payload.(store.KVResponse)
			if !ok {
				return
			}
			finished = true
			ep.Close()
			if resp.Moved {
				pl.Moved++
				if resp.MapVer > pl.smap.Version {
					// The cluster's map moved past ours: follow the
					// redirect now, refresh the cached copy for later
					// requests from the node that knows better.
					pl.Refreshes++
					pl.refreshMap(resp.Owner, rng)
				}
				pl.attempt(req, resp.Owner, budget-1, rng)
				return
			}
			if resp.Err != "" {
				pl.Errs++
			} else {
				pl.Ops++
				pl.AckedPuts.Ack(req, resp)
			}
			pl.c.Eng.After(pl.think(rng), func() { pl.step(rng) })
		},
		OnFail: func(*net.Endpoint) {
			if finished {
				return
			}
			finished = true
			pl.Failed++
			// The node may be dead: cool off past the RTO horizon, then
			// retry — on the mapped owner, which a refreshed map may have
			// changed by then.
			pl.c.Eng.After(pl.c.Nodes[0].NW.P.RTOCycles*4+pl.think(rng), func() {
				pl.attempt(req, pl.smap.NodeFor(req.Key), budget-1, rng)
			})
		},
	})
}

// refreshMap fetches node's installed map on a side connection and
// adopts it if newer.
func (pl *Pool) refreshMap(node int, rng *sim.RNG) {
	n := pl.c.Nodes[node]
	req := store.KVRequest{Op: store.WMap}
	n.NW.Dial(n.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) { ep.Send(req, req.WireBytes()) },
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			if resp, ok := payload.(store.KVResponse); ok && resp.OK {
				if m, err := DecodeMap(resp.Val); err == nil && m.Version > pl.smap.Version {
					pl.smap = m
				}
			}
			ep.Close()
		},
	})
}
