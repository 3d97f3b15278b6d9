package net

import (
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/stats"
)

// ClientParams describes a pool of closed-loop request/response clients:
// each client dials, exchanges ReqsPerConn request/response pairs with
// think time between them, closes, thinks, and dials again — the
// "serving heavy traffic" workload shape, driven entirely from the wire
// side so the measured machine pays only for serving.
type ClientParams struct {
	Port        int
	Clients     int
	ReqsPerConn int
	// ThinkCycles is the mean think time between requests (and between
	// connections); actual draws are uniform in [T/2, 3T/2). 0 = none.
	ThinkCycles uint64
	// MakeReq builds request payloads; nil sends the request index with
	// a 128-byte wire size.
	MakeReq func(client, req int) (payload core.Msg, bytes int)
	// OnResp, if set, observes each response payload (engine context) —
	// for workloads that check what came back, not just that it came.
	OnResp func(client, req int, payload core.Msg)
	Seed   uint64
}

// ClientPool runs the client fleet and accumulates results.
type ClientPool struct {
	net *Network
	p   ClientParams

	// Stats.
	Completed uint64 // connections fully closed
	Responses uint64
	Failed    uint64          // connection attempts abandoned after retries
	Lat       stats.Histogram // request → response latency, cycles

	stopped bool

	// thinks carries think-time sends to sendAfterThink.
	thinks *sim.Relay[thinkSend]
}

// client is one closed-loop client. Its hooks and its redial callback
// are bound once, in NewClientPool; ep, sent and t0 describe the
// client's current dial.
type client struct {
	cp     *ClientPool
	i      int
	rng    *sim.RNG
	hooks  EndpointHooks
	redial func() // c.dial, bound once

	ep   *Endpoint // the current dial's endpoint; nil once it finished
	sent int       // requests sent on ep
	t0   sim.Time  // when the newest request on ep was sent
}

// thinkSend is a request waiting out its client's think time. It stays
// bound to the endpoint that answered the previous request: if that
// dial has finished by the time it fires, the request still goes out on
// that endpoint, numbered sent, without touching the client's current
// dial.
type thinkSend struct {
	c    *client
	ep   *Endpoint
	sent int
}

// Stop retires the fleet: each client closes its connection after the
// response in flight and stops rescheduling, so no new dial starts. A
// client in think time when Stop is called still sends its one pending
// request first. Host-side drive-loop policy, like a World's
// StallBudget: call it between run slices, and the retirement instant
// is as deterministic as the caller's slice boundary.
func (cp *ClientPool) Stop() { cp.stopped = true }

// NewClientPool starts the fleet; clients begin dialling immediately
// with deterministic, seed-staggered think offsets.
func NewClientPool(n *Network, p ClientParams) *ClientPool {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.ReqsPerConn <= 0 {
		p.ReqsPerConn = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	cp := &ClientPool{net: n, p: p}
	cp.thinks = sim.NewRelay(n.Eng, cp.sendAfterThink)
	for i := 0; i < p.Clients; i++ {
		c := &client{cp: cp, i: i, rng: sim.NewRNG(p.Seed + uint64(i)*0x9e3779b9)}
		c.hooks = EndpointHooks{OnOpen: c.send, OnMessage: c.onMessage, OnClose: c.onClose, OnFail: c.onFail}
		c.redial = c.dial
		// Stagger the initial dials so the fleet does not arrive in
		// lockstep on cycle zero.
		n.Eng.After(cp.think(c.rng), c.redial)
	}
	return cp
}

func (cp *ClientPool) think(rng *sim.RNG) uint64 {
	t := cp.p.ThinkCycles
	if t == 0 {
		return 1 // keep event ordering sane without modelling think time
	}
	return t/2 + rng.Uint64n(t)
}

func (cp *ClientPool) makeReq(client, req int) (core.Msg, int) {
	if cp.p.MakeReq != nil {
		return cp.p.MakeReq(client, req)
	}
	return req, 128
}

// dial starts one connection lifecycle; the hooks reschedule it when
// the connection finishes — the closed loop.
func (c *client) dial() {
	if c.cp.stopped {
		return
	}
	c.sent = 0
	c.ep = c.cp.net.Dial(c.cp.p.Port, c.hooks)
}

// send puts the current dial's next request on ep.
func (c *client) send(ep *Endpoint) {
	payload, bytes := c.cp.makeReq(c.i, c.sent)
	c.sent++
	c.t0 = c.cp.net.Eng.Now()
	ep.Send(payload, bytes)
}

// sendAfterThink sends a request whose think time is over (see
// thinkSend).
func (cp *ClientPool) sendAfterThink(s thinkSend) {
	if s.ep == s.c.ep {
		s.c.send(s.ep)
		return
	}
	payload, bytes := cp.makeReq(s.c.i, s.sent)
	s.ep.Send(payload, bytes)
}

func (c *client) onMessage(ep *Endpoint, payload core.Msg, _ int) {
	cp := c.cp
	cp.Responses++
	cp.Lat.Add(cp.net.Eng.Now() - c.t0)
	if cp.p.OnResp != nil {
		cp.p.OnResp(c.i, c.sent-1, payload)
	}
	if c.sent >= cp.p.ReqsPerConn || cp.stopped {
		ep.Close()
		return
	}
	cp.thinks.After(cp.think(c.rng), thinkSend{c: c, ep: ep, sent: c.sent})
}

// onClose and onFail each finish the current dial; exactly one of them
// continues the loop, so a late hook from an endpoint whose dial already
// finished is ignored.
func (c *client) onClose(ep *Endpoint) {
	if ep != c.ep {
		return
	}
	c.ep = nil
	c.cp.Completed++
	c.cp.net.Eng.After(c.cp.think(c.rng), c.redial)
}

func (c *client) onFail(ep *Endpoint) {
	if ep != c.ep {
		return
	}
	c.ep = nil
	// Overloaded server shed us; cool off well past the backed-off RTO
	// horizon, then try again.
	cp := c.cp
	cp.Failed++
	cp.net.Eng.After(cp.net.P.RTOCycles*8+cp.think(c.rng), c.redial)
}
