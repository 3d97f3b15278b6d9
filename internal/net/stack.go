package net

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// StackParams tunes the netstack service.
type StackParams struct {
	// Shards is the number of netstack handler threads; connections are
	// routed to shard machine.HashMix(ConnID) % Shards (mixed so churning
	// sequential ids spread evenly). 0 = one shard per kernel core.
	Shards int
	// AcceptBacklog is the listener accept-channel capacity; a SYN that
	// finds it full is shed (the client retries). Default 64.
	AcceptBacklog int
	// RecvBuf is the per-connection receive channel capacity. Packets
	// that find it full are shed unacknowledged (the peer retransmits),
	// so a slow reader costs itself retransmissions instead of stalling
	// its shard. Default 256.
	RecvBuf int
}

const (
	// rxIRQCycles is the interrupt + driver cost a shard pays per
	// received frame (~0.6 µs).
	rxIRQCycles uint64 = 1200
	// rtoCycles / maxRetries govern server-side retransmission.
	rtoCycles  uint64 = 300_000
	maxRetries        = 8
	// idleCycles is how long a connection may stay completely silent
	// before the shard reaps it (the peer vanished without a FIN — gave
	// up, or its final packets were all lost). Must exceed the longest
	// backed-off retransmission gap, or a struggling-but-alive peer gets
	// reaped mid-retry.
	idleCycles = 128 * rtoCycles
)

func (p *StackParams) fill() {
	if p.AcceptBacklog <= 0 {
		p.AcceptBacklog = 64
	}
	if p.RecvBuf <= 0 {
		p.RecvBuf = 256
	}
}

// rxFrame is the kernel request argument for a received frame. It
// travels as a *rxFrame from the stack's rxFree list: the receive hook
// fills one, and the shard that handles the request returns it.
type rxFrame struct {
	Queue int
	Pkt   Packet
}

// MsgBytes implements core.Sized.
func (r *rxFrame) MsgBytes() int { return r.Pkt.MsgBytes() }

// txReq is the kernel request argument for an application send. Like
// rxFrame it travels as a *txReq from a free list, the stack's txFree:
// Conn.Send fills one, and the shard that handles the request returns
// it, whether or not the connection is still there.
type txReq struct {
	Payload core.Msg
	Bytes   int
}

// MsgBytes implements core.Sized.
func (r *txReq) MsgBytes() int { return 16 + r.Bytes }

// stackConn is the per-connection state owned by exactly one shard
// thread — mutated without any locking, because routing by ConnID means
// no other thread ever touches it. Records are recycled through the
// shard's free list (see retire and reuse).
type stackConn struct {
	id   ConnID
	port int

	snd    sendFlow
	rcv    recvFlow
	recvCh *core.Chan

	finSent, finRcvd bool
	retries          int
	rto              sim.Timer
	lastRx           sim.Time // last packet seen; idle sweep reaps silence

	// The RTO timer's callback is built once per record; rtoFrom is the
	// core that armed the pending timer.
	rtoFire func()
	rtoFrom int
}

// reuse readies a new or recycled record for connection id: flows
// empty but keeping their rings and scratch slices, the default
// window, no retries, no FIN seen either way, no timer, and the socket
// channel recvCh.
func (c *stackConn) reuse(id ConnID, port int, recvCh *core.Chan, now sim.Time) {
	c.snd.reset(defaultWindow)
	c.rcv.reset()
	*c = stackConn{id: id, port: port, snd: c.snd, rcv: c.rcv, recvCh: recvCh, lastRx: now, rtoFire: c.rtoFire}
}

// closedRec remembers a retired connection: when it went, and whether
// it went cleanly (FIN handshake — we provably received everything) or
// not (idle-reaped or gave up — later arrivals may be genuinely new
// data that must NOT be acknowledged).
type closedRec struct {
	at    sim.Time
	clean bool
}

// shardState is one shard's private connection table, plus a TIME_WAIT
// set: connection ids that closed recently, kept so a delayed duplicate
// SYN cannot resurrect a finished connection as a ghost.
type shardState struct {
	id         int
	conns      map[ConnID]*stackConn
	closed     map[ConnID]closedRec
	sweepArmed bool // an idle sweep is scheduled

	// The sweep timer's callback is built once per shard; sweepFrom is
	// the core that armed the pending sweep.
	sweepFire func()
	sweepFrom int

	// free holds retired connection records for the next SYN to reuse.
	free sim.FreeList[stackConn]

	// m is this shard's private metric set: incremented freely on the
	// shard's handler thread, folded only when statd sweeps by (see
	// internal/telemetry and net/telemetry.go).
	m StackCounters
}

// Listener is a port bound to an accept channel: accepting a connection
// is receiving a *Conn message, nothing more.
type Listener struct {
	Port   int
	accept *core.Chan
}

// Accept blocks until the next connection arrives. ok is false once the
// listener's channel is closed.
func (l *Listener) Accept(t *core.Thread) (*Conn, bool) {
	v, ok := l.accept.Recv(t)
	if !ok {
		return nil, false
	}
	return v.(*Conn), true
}

// Conn is the application's socket: a receive channel carrying in-order
// payloads (closed when the peer's FIN arrives) and a Send that is a
// message to the connection's netstack shard. A connection IS a pair of
// channels — the paper's "plumb a connection by passing around a
// channel" made literal.
type Conn struct {
	id    ConnID
	port  int
	stack *Stack
	recv  core.Chan // the socket channel, whose shard holds it as recvCh
}

// MsgBytes implements core.Sized (a Conn travels through the accept
// channel as a capability).
func (c *Conn) MsgBytes() int { return 64 }

// CopyMsg implements core.Copier: like a channel, a Conn is a
// capability, so strict mode passes it by reference. A copy would hold a
// copy of the socket channel, which the shard never delivers to.
func (c *Conn) CopyMsg() core.Msg { return c }

// ID returns the connection id.
func (c *Conn) ID() ConnID { return c.id }

// Recv returns the next in-order payload; ok is false after the peer
// closes and the buffer drains.
func (c *Conn) Recv(t *core.Thread) (core.Msg, bool) {
	return c.recv.Recv(t)
}

// Send transmits one payload with the given simulated wire size.
func (c *Conn) Send(t *core.Thread, payload core.Msg, bytes int) {
	s := c.stack
	a := s.txFree.Hold(txReq{Payload: payload, Bytes: bytes})
	s.svc.Send(t, s.shardChan(c.id), kernel.Request{Op: "tx", Key: int(c.id), Arg: a})
}

// Close sends the FIN after all queued data.
func (c *Conn) Close(t *core.Thread) {
	s := c.stack
	s.svc.Send(t, s.shardChan(c.id), kernel.Request{Op: "close", Key: int(c.id)})
}

// Stack is the netstack: a sharded kernel service bridging the NIC to
// socket channels.
type Stack struct {
	rt  *core.Runtime
	k   *kernel.Kernel
	nic *machine.NIC
	svc *kernel.Service
	P   StackParams

	listeners map[int]*Listener

	// pkts issues the records transmitted packets ride in to the wire;
	// rxFree and txFree hold released rx and tx request arguments (see
	// rxFrame and txReq).
	pkts   sim.FreeList[Packet]
	rxFree sim.FreeList[rxFrame]
	txFree sim.FreeList[txReq]

	// states indexes each shard's private state for telemetry sweeps;
	// populated eagerly while RegisterEach builds the handlers. Only the
	// metric fields are read from outside the owning shard thread, and
	// only between run slices or from statd's engine-context collector.
	states []*shardState
}

// NewStack registers the "net" service on k's kernel cores and claims
// the NIC's receive side: every frame is injected into the shard owning
// its connection, so one connection's packets are processed in series by
// one thread while distinct connections proceed in parallel.
func NewStack(rt *core.Runtime, k *kernel.Kernel, nic *machine.NIC, p StackParams) *Stack {
	p.fill()
	s := &Stack{rt: rt, k: k, nic: nic, P: p, listeners: make(map[int]*Listener)}
	s.svc = k.RegisterEach("net", p.Shards, s.shardHandler)
	nic.OnReceive(func(queue int, f machine.Frame) {
		pk, ok := f.Payload.(*Packet)
		if !ok {
			nic.RxDone(queue)
			return
		}
		a := s.rxFree.Hold(rxFrame{Queue: queue, Pkt: sim.TakeBack(pk, &pk.pool)})
		s.svc.Inject(s.shardChan(a.Pkt.Conn), kernel.Request{
			Op: "rx", Key: int(a.Pkt.Conn), Arg: a,
		}, queue%rt.NumCores())
	})
	return s
}

// Shards returns the number of netstack shards.
func (s *Stack) Shards() int { return s.svc.Shards() }

// shardChan routes a connection to its owning shard. The id is mixed
// (same hash as the NIC's RSS) so the live-connection id pattern —
// sequential, churning — spreads evenly instead of striding.
func (s *Stack) shardChan(id ConnID) *core.Chan {
	return s.svc.ShardFor(machine.HashMix(int(id)))
}

// Listen binds a port and returns its listener.
func (s *Stack) Listen(port int) *Listener {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("net: port %d already bound", port))
	}
	l := &Listener{
		Port:   port,
		accept: s.rt.NewChan(fmt.Sprintf("listen.%d", port), s.P.AcceptBacklog),
	}
	s.listeners[port] = l
	return l
}

// shardHandler builds the handler closure for one shard; state lives in
// the closure, reachable only from that shard's thread.
func (s *Stack) shardHandler(shard int) kernel.Handler {
	st := &shardState{
		id:     shard,
		conns:  make(map[ConnID]*stackConn),
		closed: make(map[ConnID]closedRec),
	}
	st.sweepFire = func() {
		s.svc.Inject(s.svc.Shard(st.id), kernel.Request{Op: "sweep", Key: shard}, st.sweepFrom)
	}
	for len(s.states) <= shard {
		s.states = append(s.states, nil)
	}
	s.states[shard] = st
	return func(t *core.Thread, req kernel.Request) core.Msg {
		switch req.Op {
		case "rx":
			f := s.rxFree.Take(req.Arg.(*rxFrame))
			s.nic.RxDone(f.Queue)
			t.Compute(rxIRQCycles)
			s.rx(t, st, f.Pkt)
		case "tx":
			a := s.txFree.Take(req.Arg.(*txReq))
			c := st.conns[ConnID(req.Key)]
			if c == nil || c.finSent {
				return nil // connection gone: data silently dropped
			}
			s.sendSeq(t, st, c, Packet{Conn: c.id, Port: c.port, Flags: DATA, Bytes: a.Bytes, Payload: a.Payload})
		case "close":
			c := st.conns[ConnID(req.Key)]
			if c == nil || c.finSent {
				return nil
			}
			c.finSent = true
			s.sendSeq(t, st, c, Packet{Conn: c.id, Port: c.port, Flags: FIN})
		case "rto":
			s.rto(t, st, ConnID(req.Key))
		case "sweep":
			s.sweep(t, st)
		}
		return nil
	}
}

// ensureSweep keeps one idle sweep scheduled while the shard has live
// connections. It re-enters the shard as a service message (Key is the
// shard's own index, which routes to itself) and stops rearming once the
// table empties, so simulations still quiesce.
func (s *Stack) ensureSweep(t *core.Thread, st *shardState) {
	if st.sweepArmed || len(st.conns) == 0 {
		return
	}
	st.sweepArmed = true
	st.sweepFrom = t.Core()
	s.rt.Eng.After(idleCycles/4, st.sweepFire)
}

// sweep reaps connections that have been completely silent for
// idleCycles: their peer is gone (gave up, or every closing packet was
// lost) and nothing else will ever remove them. Iteration is in id
// order — reaping closes channels, which schedules events.
func (s *Stack) sweep(t *core.Thread, st *shardState) {
	st.sweepArmed = false
	now := s.rt.Eng.Now()
	for _, id := range detmap.Keys(st.conns) {
		c := st.conns[id]
		if now-c.lastRx <= idleCycles {
			continue
		}
		st.m.IdleReaped++
		s.clearRTO(c)
		if !c.finRcvd {
			c.recvCh.Close(t)
		}
		s.retire(st, c, false)
	}
	s.ensureSweep(t, st)
}

// rx processes one received packet on its owning shard.
func (s *Stack) rx(t *core.Thread, st *shardState, p Packet) {
	st.m.RxPackets++
	switch {
	case p.Flags&SYN != 0:
		if c := st.conns[p.Conn]; c != nil {
			// Duplicate SYN: our SYNACK was lost or is in flight. The
			// retry proves the peer is alive — keep the idle sweep away.
			c.lastRx = s.rt.Eng.Now()
			s.transmit(t, st, Packet{Conn: c.id, Port: c.port, Flags: SYNACK, Window: s.advWindow(c)})
			return
		}
		if rec, was := st.closed[p.Conn]; was {
			if s.rt.Eng.Now()-rec.at <= timeWait*rtoCycles {
				return // stale duplicate SYN for a finished connection
			}
			// TIME_WAIT expired: the id may be legitimately reused.
			delete(st.closed, p.Conn)
		}
		l := s.listeners[p.Port]
		if l == nil {
			return // no listener: the void swallows the SYN
		}
		c := st.free.Get()
		conn := &Conn{id: p.Conn, port: p.Port, stack: s}
		t.InitChan(&conn.recv, s.rt.Label("conn.%d.recv", int(p.Conn)), s.P.RecvBuf)
		c.reuse(p.Conn, p.Port, &conn.recv, s.rt.Eng.Now())
		if !l.accept.TrySend(t, conn) {
			st.m.AcceptDrops++ // backlog full: shed; the client will retry
			st.free.Put(c)
			return
		}
		st.conns[p.Conn] = c
		if c.rtoFire == nil {
			c.rtoFire = func() {
				s.svc.Inject(s.shardChan(c.id), kernel.Request{Op: "rto", Key: int(c.id)}, c.rtoFrom)
			}
		}
		st.m.Accepts++
		s.transmit(t, st, Packet{Conn: c.id, Port: c.port, Flags: SYNACK, Window: s.advWindow(c)})
		s.ensureSweep(t, st)

	case p.Flags&ACK != 0:
		c := st.conns[p.Conn]
		if c == nil {
			return
		}
		c.lastRx = s.rt.Eng.Now()
		c.retries = 0
		c.snd.setWindow(p.Window, p.Ack)
		outstanding := c.snd.ack(p.Ack)
		for _, q := range c.snd.drain() {
			s.transmit(t, st, q) // the peer's window reopened: release queued data
		}
		if len(c.snd.pending()) > 0 {
			s.armRTO(t, c)
		}
		if !outstanding {
			s.clearRTO(c)
			if c.finSent && c.finRcvd {
				s.retire(st, c, true) // fully closed and acknowledged
			}
		}

	case p.Flags&(DATA|FIN) != 0:
		c := st.conns[p.Conn]
		if c == nil {
			if rec, was := st.closed[p.Conn]; was && rec.clean {
				// Retransmission to a cleanly retired connection (our
				// final ACK was lost): the FIN handshake proved we had
				// everything contiguous, so acking its seq is safe — and
				// without this the peer retries into a void and reports
				// failure on a connection that in fact completed. An
				// uncleanly retired connection (idle-reaped, gave up)
				// must stay silent: acking would claim delivery of data
				// that was dropped.
				s.transmit(t, st, Packet{Conn: p.Conn, Port: p.Port, Flags: ACK, Ack: p.Seq, Window: defaultWindow})
			}
			return
		}
		c.lastRx = s.rt.Eng.Now()
		run := c.rcv.accept(p)
		closed := false // the FIN completed the close
		for i, q := range run {
			if q.Flags&FIN != 0 {
				c.finRcvd = true
				c.recvCh.Close(t)
				closed = c.finSent && c.snd.done()
			} else if c.recvCh.TrySend(t, q.Payload) {
				st.m.Delivered++
			} else {
				// Socket buffer full. Never block the shard on one
				// connection's slow reader (the app thread might itself
				// be blocked sending to this shard — that way lies
				// deadlock): shed the rest of the run unacknowledged and
				// let the peer's retransmission redeliver it.
				c.rcv.unaccept(run[i:])
				st.m.RecvFull += uint64(len(run) - i)
				break
			}
		}
		// Ack what was actually taken — and re-ack duplicates, so a peer
		// whose ack was lost stops retransmitting. The advertised window
		// tells the peer how much more the socket buffer can take: 0
		// throttles it to probes instead of a retransmit storm. A
		// completed close retires c once the ACK is built: that is c's
		// last use.
		ack := Packet{Conn: c.id, Port: c.port, Flags: ACK, Ack: c.rcv.cumAck(), Window: s.advWindow(c)}
		if closed {
			s.retire(st, c, true)
		}
		s.transmit(t, st, ack)
	}
}

// advWindow is the receive window advertised for a connection: free
// slots in its socket buffer. The reassembly queue is not subtracted —
// held out-of-order packets were charged to the wire already and will
// be delivered or shed when their gap fills; the shed path remains the
// safety net for the overshoot.
func (s *Stack) advWindow(c *stackConn) int {
	w := c.recvCh.Cap() - c.recvCh.Len()
	if w < 0 {
		w = 0
	}
	return w
}

// timeWait is how long a finished connection id stays in the TIME_WAIT
// set, as a multiple of the RTO: long enough to outlive any duplicate
// SYN still in flight or scheduled for retransmission.
const timeWait = 16

// retire removes a finished connection and remembers its id in
// TIME_WAIT; clean marks a completed FIN handshake (see closedRec).
// The set is purged lazily once it grows; expiry is order-insensitive,
// so map iteration hurts nothing.
//
// The record goes back on the shard's free list last, so retiring is
// every caller's last use of c. A record retired with its RTO armed is
// left to the garbage collector instead: the stale timer reads c.id
// when it fires, and canceling it would remove an engine event.
func (s *Stack) retire(st *shardState, c *stackConn, clean bool) {
	delete(st.conns, c.id)
	now := s.rt.Eng.Now()
	st.closed[c.id] = closedRec{at: now, clean: clean}
	if len(st.closed) >= 512 {
		horizon := timeWait * rtoCycles
		for id, rec := range st.closed { //chanos:allow mapiter the purge only deletes, so its order cannot matter; detmap would allocate and sort on every retire of a busy shard
			if now-rec.at > horizon {
				delete(st.closed, id)
			}
		}
	}
	if !c.rto.Armed() {
		st.free.Put(c)
	}
}

// sendSeq submits a sequenced packet: whatever the peer's window admits
// goes on the wire now (tracked for retransmission), the rest queues
// until acks reopen the window.
func (s *Stack) sendSeq(t *core.Thread, st *shardState, c *stackConn, p Packet) {
	wasQueued := c.snd.queued.Len()
	for _, q := range c.snd.submit(p) {
		s.transmit(t, st, q)
	}
	if c.snd.queued.Len() > wasQueued {
		// The peer's advertised window blocked this submission: the
		// packet waits for an ack to reopen it. Counted per stalled
		// submission, so the rate tracks how often senders outrun
		// receivers.
		st.m.WindowStalls++
	}
	if len(c.snd.pending()) > 0 {
		s.armRTO(t, c)
	}
}

// transmit pays the descriptor cost and hands the packet to this core's
// TX queue.
func (s *Stack) transmit(t *core.Thread, st *shardState, p Packet) {
	t.Compute(s.nic.P.TxDMACycles)
	st.m.TxPackets++
	s.nic.Transmit(machine.Frame{
		Queue:   t.Core() % s.nic.Queues(),
		Bytes:   p.MsgBytes(),
		Payload: pooledPacket(&s.pkts, p),
	})
}

// armRTO schedules a retransmission check; it fires back into the shard
// as an ordinary service message, so retransmission needs no locking
// either.
func (s *Stack) armRTO(t *core.Thread, c *stackConn) {
	if c.rto.Armed() {
		return
	}
	c.rtoFrom = t.Core()
	c.rto = s.rt.Eng.After(rtoAfter(rtoCycles, c.retries), c.rtoFire)
}

func (s *Stack) clearRTO(c *stackConn) {
	s.rt.Eng.Cancel(c.rto)
}

// rto retransmits a connection's outstanding packets, or tears the
// connection down after maxRetries consecutive silent timeouts.
func (s *Stack) rto(t *core.Thread, st *shardState, id ConnID) {
	c := st.conns[id]
	if c == nil {
		return
	}
	pend := c.snd.pending()
	if len(pend) == 0 {
		return
	}
	if c.retries >= maxRetries {
		st.m.GaveUp++
		if !c.finRcvd {
			c.recvCh.Close(t)
		}
		s.retire(st, c, false)
		return
	}
	c.retries++
	for _, p := range pend {
		s.transmit(t, st, p)
		st.m.Retransmits++
	}
	s.armRTO(t, c)
}
