package net

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

// WireParams models the network between the machine and its remote
// peers: deterministic, seeded propagation delay, per-packet jitter
// (which reorders packets) and i.i.d. loss. RTOCycles/MaxRetries govern
// the retransmission behaviour of every sender on the wire.
type WireParams struct {
	DelayCycles  uint64  // one-way base propagation
	JitterCycles uint64  // uniform extra in [0, JitterCycles) per packet
	LossProb     float64 // drop probability per packet, each direction
	RTOCycles    uint64  // retransmission timeout
	MaxRetries   int     // consecutive timeouts before a sender gives up
	Seed         uint64
}

// DefaultWireParams models an intra-datacenter path on the 2 GHz
// machine: 10 µs one-way delay, 2 µs jitter, no loss, 150 µs RTO.
func DefaultWireParams() WireParams {
	return WireParams{
		DelayCycles:  20_000,
		JitterCycles: 4_000,
		LossProb:     0,
		RTOCycles:    300_000,
		MaxRetries:   8,
		Seed:         1,
	}
}

func (p *WireParams) fill() {
	if p.DelayCycles == 0 {
		p.DelayCycles = 20_000
	}
	if p.RTOCycles == 0 {
		p.RTOCycles = 300_000
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Network is the simulated wire plus the remote peers on it. It attaches
// to the NIC's wire side: frames the host transmits are routed to the
// endpoint owning the connection; packets endpoints send arrive on the
// NIC RX queue the device's RSS function picks. All activity is engine
// events — remote peers consume no cycles on the simulated machine.
type Network struct {
	Eng *sim.Engine
	P   WireParams

	rng    *sim.RNG
	nic    *machine.NIC
	eps    map[ConnID]*Endpoint
	nextID ConnID

	// Each packet crosses the wire as one recycled relay event: toNIC
	// lands it on the NIC, toEP hands it to its endpoint. pkts issues
	// the records the packets ride in onto the RX rings.
	toNIC *sim.Relay[Packet]
	toEP  *sim.Relay[Packet]
	pkts  sim.FreeList[Packet]

	// flows holds the flow records of cleanly reaped endpoints for the
	// next Dial to reuse (see epFlows).
	flows sim.FreeList[epFlows]

	// Stats.
	ToHost, ToClient uint64 // packets that survived the wire, per direction
	WireDrops        uint64
	Retransmits      uint64 // endpoint-side retransmissions
	GaveUp           uint64 // endpoints that exhausted MaxRetries
	WindowDeferred   uint64 // sends held back by the peer's receive window
}

// NewNetwork builds the wire and claims the NIC's transmit side.
func NewNetwork(eng *sim.Engine, nic *machine.NIC, p WireParams) *Network {
	p.fill()
	n := &Network{
		Eng:    eng,
		P:      p,
		rng:    sim.NewRNG(p.Seed),
		nic:    nic,
		eps:    make(map[ConnID]*Endpoint),
		nextID: 1,
	}
	n.toNIC = sim.NewRelay(eng, n.arrive)
	n.toEP = sim.NewRelay(eng, n.deliver)
	nic.OnTransmit(n.fromHost)
	return n
}

// delay draws one packet's wire latency.
func (n *Network) delay() uint64 {
	d := n.P.DelayCycles
	if n.P.JitterCycles > 0 {
		d += n.rng.Uint64n(n.P.JitterCycles)
	}
	return d
}

// drop draws one packet's loss fate.
func (n *Network) drop() bool {
	return n.P.LossProb > 0 && n.rng.Bool(n.P.LossProb)
}

// fromHost carries a frame the NIC finished serialising to its endpoint.
// It is the frame's consumer: the packet record goes back to the stack's
// pool here, whether or not the wire then loses the packet.
func (n *Network) fromHost(f machine.Frame) {
	pk, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	p := sim.TakeBack(pk, &pk.pool)
	if n.drop() {
		n.WireDrops++
		return
	}
	n.ToClient++
	n.toEP.After(n.delay(), p)
}

// deliver hands a packet that crossed the wire to its endpoint.
func (n *Network) deliver(p Packet) {
	if ep := n.eps[p.Conn]; ep != nil {
		ep.handle(p)
	}
}

// toHost carries an endpoint's packet onto the machine's NIC, landing on
// the RX queue RSS assigns to the connection.
func (n *Network) toHost(p Packet) {
	if n.drop() {
		n.WireDrops++
		return
	}
	n.ToHost++
	n.toNIC.After(n.delay(), p)
}

// arrive lands a packet that crossed the wire on the NIC.
func (n *Network) arrive(p Packet) {
	n.nic.Arrive(machine.Frame{
		Queue:   n.nic.QueueFor(int(p.Conn)),
		Bytes:   p.MsgBytes(),
		Payload: pooledPacket(&n.pkts, p),
	})
}

// EndpointHooks are the client-side event callbacks. All run in engine
// context at the virtual time the triggering packet is delivered.
type EndpointHooks struct {
	// OnOpen fires when the server's SYNACK arrives.
	OnOpen func(*Endpoint)
	// OnMessage fires per in-order payload, with its wire size.
	OnMessage func(ep *Endpoint, payload core.Msg, bytes int)
	// OnClose fires when the server's FIN is delivered in order.
	OnClose func(*Endpoint)
	// OnFail fires when the endpoint gives up after MaxRetries
	// consecutive timeouts (connect or retransmission).
	OnFail func(*Endpoint)
}

// Endpoint is a remote peer: the client half of one connection, driven
// entirely by engine events. It mirrors the stack's per-connection state
// (sequence assignment, reassembly, cumulative ack, retransmission).
type Endpoint struct {
	ID   ConnID
	Port int

	net     *Network
	hooks   EndpointHooks
	flows   *epFlows // nil once cleanly reaped
	open    bool     // SYNACK seen
	closed  bool     // we sent FIN
	done    bool     // remote FIN delivered
	retries int
	rto     sim.Timer
}

// epFlows is the part of an Endpoint its Network recycles: both flows,
// with their rings and scratch slices, and the RTO callback. Callers
// hold the Endpoint itself, so it is never reused; the record is handed
// back at the clean reap in maybeReap, which cancels the RTO, so no
// stale timer can reach the next endpoint. An endpoint that gave up
// keeps its record, because its owner may still send on it.
type epFlows struct {
	ep   *Endpoint
	snd  sendFlow
	rcv  recvFlow
	fire func() // f.fireRTO, bound once per record: arming allocates nothing
}

func (f *epFlows) fireRTO() { f.ep.fireRTO() }

// Dial opens a connection to the given port: the SYN goes on the wire
// immediately and is retried on timeout until the server answers (or
// MaxRetries is exhausted, e.g. when the listen backlog keeps shedding).
func (n *Network) Dial(port int, hooks EndpointHooks) *Endpoint {
	f := n.flows.Get()
	if f.fire == nil {
		f.fire = f.fireRTO
	}
	f.snd.reset(0)
	f.rcv.reset()
	ep := &Endpoint{ID: n.nextID, Port: port, net: n, hooks: hooks, flows: f}
	f.ep = ep
	n.nextID++
	n.eps[ep.ID] = ep
	n.toHost(Packet{Conn: ep.ID, Port: port, Flags: SYN})
	ep.armRTO()
	return ep
}

// Open reports whether the handshake has completed.
func (ep *Endpoint) Open() bool { return ep.open }

// Send puts one payload on the wire with the given simulated size — or
// queues it locally when the server's advertised receive window is
// closed, instead of blasting packets the peer would only shed. Queued
// payloads go out as acks reopen the window.
func (ep *Endpoint) Send(payload core.Msg, bytes int) {
	if !ep.open {
		panic(fmt.Sprintf("net: send on unopened connection %d", ep.ID))
	}
	if ep.closed {
		return
	}
	rel := ep.flows.snd.submit(Packet{Conn: ep.ID, Port: ep.Port, Flags: DATA, Bytes: bytes, Payload: payload})
	if len(rel) == 0 {
		ep.net.WindowDeferred++
	}
	for _, p := range rel {
		ep.net.toHost(p)
	}
	ep.armRTO()
}

// Close sends the FIN (sequenced after all data, including data still
// queued behind the window).
func (ep *Endpoint) Close() {
	if ep.closed || !ep.open {
		return
	}
	ep.closed = true
	for _, p := range ep.flows.snd.submit(Packet{Conn: ep.ID, Port: ep.Port, Flags: FIN}) {
		ep.net.toHost(p)
	}
	ep.armRTO()
}

// rtoAfter returns the current timeout with exponential backoff: doubling
// per consecutive silent timeout keeps an overloaded server from being
// buried under retransmissions of the very queue that delays its acks.
func rtoAfter(base uint64, retries int) uint64 {
	if retries > 6 {
		retries = 6
	}
	return base << uint(retries)
}

func (ep *Endpoint) armRTO() {
	if ep.rto.Armed() {
		return
	}
	ep.rto = ep.net.Eng.After(rtoAfter(ep.net.P.RTOCycles, ep.retries), ep.flows.fire)
}

func (ep *Endpoint) cancelRTO() {
	ep.net.Eng.Cancel(ep.rto)
}

func (ep *Endpoint) fireRTO() {
	if ep.retries >= ep.net.P.MaxRetries {
		ep.net.GaveUp++
		delete(ep.net.eps, ep.ID)
		if ep.hooks.OnFail != nil {
			ep.hooks.OnFail(ep)
		}
		return
	}
	ep.retries++
	if !ep.open {
		ep.net.toHost(Packet{Conn: ep.ID, Port: ep.Port, Flags: SYN})
		ep.net.Retransmits++
		ep.armRTO()
		return
	}
	pend := ep.flows.snd.pending()
	for _, p := range pend {
		ep.net.toHost(p)
		ep.net.Retransmits++
	}
	if len(pend) > 0 {
		ep.armRTO()
	}
}

// handle processes one packet delivered to this endpoint.
func (ep *Endpoint) handle(p Packet) {
	switch {
	case p.Flags&SYNACK != 0:
		if ep.open {
			return // duplicate
		}
		ep.open = true
		ep.retries = 0
		ep.flows.snd.setWindow(p.Window, 0) // server's initial receive window
		ep.cancelRTO()
		if ep.hooks.OnOpen != nil {
			ep.hooks.OnOpen(ep)
		}

	case p.Flags&ACK != 0:
		ep.retries = 0
		ep.flows.snd.setWindow(p.Window, p.Ack)
		outstanding := ep.flows.snd.ack(p.Ack)
		for _, q := range ep.flows.snd.drain() {
			ep.net.toHost(q) // window reopened: release queued sends
		}
		if !outstanding {
			ep.cancelRTO()
			ep.maybeReap()
		} else if len(ep.flows.snd.pending()) > 0 {
			ep.armRTO()
		}

	case p.Flags&(DATA|FIN) != 0:
		run := ep.flows.rcv.accept(p)
		// Always re-ack: the peer retransmits until it hears from us.
		// Endpoints deliver straight into callbacks — no buffer to fill —
		// so they advertise an effectively unlimited window.
		ep.net.toHost(Packet{Conn: ep.ID, Port: ep.Port, Flags: ACK, Ack: ep.flows.rcv.cumAck(), Window: defaultWindow})
		for _, q := range run {
			if q.Flags&FIN != 0 {
				ep.done = true
				if ep.hooks.OnClose != nil {
					ep.hooks.OnClose(ep)
				}
				ep.maybeReap()
			} else if ep.hooks.OnMessage != nil {
				ep.hooks.OnMessage(ep, q.Payload, q.Bytes)
			}
		}
	}
}

// maybeReap removes the endpoint once both directions are finished and
// hands its flows back to the network. A reaped endpoint is closed, so
// Send and Close on it return before they would touch the flows.
func (ep *Endpoint) maybeReap() {
	if ep.done && ep.closed && ep.flows.snd.done() {
		ep.cancelRTO()
		delete(ep.net.eps, ep.ID)
		ep.flows.ep = nil
		ep.net.flows.Put(ep.flows)
		ep.flows = nil
	}
}
