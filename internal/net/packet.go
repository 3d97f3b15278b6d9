// Package net is the chanOS network stack, built the way the paper says
// kernel subsystems should be built (§4): the NIC is a device with
// per-core queues, the stack is a kernel service whose handler threads
// are sharded by connection ID (so independent connections never
// serialise behind a shared lock — the per-object sharding argument of
// the scalable-OS literature applied to its canonical subsystem), and a
// socket is nothing but channels: a listener is an accept channel, a
// connection is a receive channel plus sends routed to the connection's
// shard. "Syscalls are messages" all the way down to the wire.
//
// Remote peers live on the simulated wire (package-local Endpoint state
// machines driven by engine events), so every CPU cycle measured belongs
// to the serving machine. The wire applies deterministic, seeded delay,
// jitter and loss; the stack recovers ordering with per-connection
// sequence numbers and reassembly, and recovers loss with cumulative
// acks plus timeout retransmission.
//
// The message-passing discipline is total: a packet arrival is a
// message into the owning shard, a timer is a deferred self-message
// ("rto"), and nothing a shard owns is touched from outside it. The
// same wire carries inter-machine traffic — the store's replication
// stream dials an Endpoint like any client — so machines compose into
// clusters with no new primitives.
package net

import (
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/sim/fifo"
)

// ConnID identifies one connection; it is the sharding key for the
// netstack service and the RSS key for the NIC.
type ConnID int

// Flags classifies a packet.
type Flags uint8

// Packet flag bits.
const (
	SYN    Flags = 1 << iota // client opens a connection
	SYNACK                   // server accepts it
	DATA                     // sequenced payload
	ACK                      // cumulative acknowledgement (Ack field)
	FIN                      // sequenced end-of-stream marker
)

func (f Flags) String() string {
	switch {
	case f&SYN != 0:
		return "SYN"
	case f&SYNACK != 0:
		return "SYNACK"
	case f&FIN != 0:
		return "FIN"
	case f&DATA != 0:
		return "DATA"
	case f&ACK != 0:
		return "ACK"
	}
	return "?"
}

// headerBytes is the simulated wire overhead of every packet.
const headerBytes = 40

// Packet is one unit of wire transfer. DATA and FIN packets carry a
// per-direction sequence number starting at 1; ACKs carry the highest
// contiguous sequence received plus the receiver's advertised window
// (free socket-buffer slots, in packets) — a full buffer advertises 0
// and the sender stops instead of blasting into retransmission. Bytes
// is the simulated payload size (Payload itself is host data and
// travels by reference — the wire cost model charges Bytes, not the
// host representation).
type Packet struct {
	Conn    ConnID
	Port    int
	Seq     uint64
	Ack     uint64
	Flags   Flags
	Bytes   int
	Window  int
	Payload core.Msg

	pool *sim.FreeList[Packet] // the pool a record crossing the NIC came from
}

// MsgBytes implements core.Sized.
func (p Packet) MsgBytes() int { return headerBytes + p.Bytes }

// pooledPacket returns a record from pool holding p. A packet crosses
// the NIC in machine.Frame.Payload as such a record. Each side issues
// from its own pool — the stack for the frames it transmits, the wire
// for the frames it lands on the RX rings — and the frame's one
// consumer returns the record to the pool it came from (sim.TakeBack):
// Network.fromHost on the way out, the stack's receive hook on the way
// in. A frame the NIC drops at a full RX ring leaves its record to the
// garbage collector.
func pooledPacket(pool *sim.FreeList[Packet], p Packet) *Packet {
	pk := pool.Get()
	*pk = p
	pk.pool = pool
	return pk
}

// defaultWindow is the window assumed for a peer that has no receive
// buffer to fill (remote endpoints deliver straight into callbacks) —
// effectively "no flow-control limit".
const defaultWindow = 1 << 16

// sendFlow is the sending half of one direction of a connection: it
// assigns sequence numbers, keeps unacknowledged packets for
// retransmission, and holds submissions back while the peer's advertised
// receive window is full. Both stack connections and remote endpoints
// embed one.
type sendFlow struct {
	nextSeq uint64
	unacked fifo.Queue[Packet]
	queued  fifo.Queue[Packet] // submitted but unsequenced: waiting for window
	out     []Packet           // drain's result, reused by the next drain
	wnd     int                // peer's advertised receive window, in packets
	wndAck  uint64             // newest cumulative ack that updated the window
}

// reset empties the flow for a new connection whose peer advertises
// wnd, keeping its rings and scratch slice.
func (s *sendFlow) reset(wnd int) {
	s.unacked.Reset()
	s.queued.Reset()
	clear(s.out)
	*s = sendFlow{unacked: s.unacked, queued: s.queued, out: s.out[:0], wnd: wnd}
}

// window returns the usable window. A zero advertisement degrades to a
// single in-flight packet: the classic zero-window probe, retransmitted
// on the RTO until the peer's buffer drains and its acks reopen the
// window — without it the flow would deadlock, since a receiver with a
// full buffer has no other reason to send another ack.
func (s *sendFlow) window() int {
	if s.wnd <= 0 {
		return 1
	}
	return s.wnd
}

// submit accepts one DATA or FIN packet and returns the packets now
// sendable (sequence-stamped, retained for retransmission). A closed
// window queues the submission instead; acks release it later via drain.
func (s *sendFlow) submit(p Packet) []Packet {
	s.queued.Push(p)
	return s.drain()
}

// drain moves queued packets into the window, stamping sequence numbers
// in submission order, and returns the ones to transmit now. The result
// is the flow's own scratch slice, valid until the next submit or drain.
func (s *sendFlow) drain() []Packet {
	clear(s.out)
	s.out = s.out[:0]
	for s.queued.Len() > 0 && s.unacked.Len() < s.window() {
		p := s.queued.Pop()
		s.nextSeq++
		p.Seq = s.nextSeq
		s.unacked.Push(p)
		s.out = append(s.out, p)
	}
	return s.out
}

// setWindow records the peer's advertised window, ignoring updates
// carried by acks older than the newest seen: jitter reorders acks, and
// a stale zero-window from before the peer's buffer drained must not
// re-throttle a flow a newer ack already reopened. Equal-ack updates
// are accepted — while the cumulative ack is pinned (buffer full), each
// re-ack carries the freshest window.
func (s *sendFlow) setWindow(w int, ack uint64) {
	if ack < s.wndAck {
		return
	}
	s.wndAck = ack
	s.wnd = w
}

// ack drops packets covered by the cumulative ack and reports whether
// anything is still outstanding (in flight or queued behind the window).
func (s *sendFlow) ack(cum uint64) (outstanding bool) {
	for s.unacked.Len() > 0 && s.unacked.Front().Seq <= cum {
		s.unacked.Pop()
	}
	return !s.done()
}

// pending returns the unacknowledged in-flight packets, oldest first.
// Queued-behind-window packets are not pending: they have no sequence
// number yet and must not be retransmitted. The slice aliases the flow:
// it is for reading, and only until the flow next changes.
func (s *sendFlow) pending() []Packet { return s.unacked.Live() }

// done reports whether every submission has been sent and acknowledged.
func (s *sendFlow) done() bool { return s.unacked.Len() == 0 && s.queued.Len() == 0 }

// recvFlow is the receiving half: it reassembles the sequence space,
// holding out-of-order arrivals until the gap fills.
type recvFlow struct {
	next uint64 // next expected seq (first is 1)
	held map[uint64]Packet
	run  []Packet // accept's result, reused by the next accept
}

// reset empties the flow for a new connection, keeping its reassembly
// map and scratch slice.
func (r *recvFlow) reset() {
	clear(r.held)
	clear(r.run)
	r.next, r.run = 0, r.run[:0]
}

// accept processes one sequenced packet and returns the run of packets
// now deliverable in order (nil for duplicates and out-of-order holds).
// The run is the flow's own scratch slice, valid until the next accept.
func (r *recvFlow) accept(p Packet) []Packet {
	if r.next == 0 {
		r.next = 1
	}
	if p.Seq < r.next {
		return nil // duplicate of something already delivered
	}
	if p.Seq > r.next {
		if r.held == nil {
			r.held = make(map[uint64]Packet)
		}
		r.held[p.Seq] = p
		return nil
	}
	clear(r.run)
	r.run = append(r.run[:0], p)
	r.next++
	for {
		q, ok := r.held[r.next]
		if !ok {
			break
		}
		delete(r.held, r.next)
		r.run = append(r.run, q)
		r.next++
	}
	return r.run
}

// unaccept returns undeliverable packets to the reassembly buffer and
// rewinds the expected sequence: they are treated as never received, so
// they stay unacknowledged and the peer's retransmission redelivers
// them. Used when the socket buffer is full.
func (r *recvFlow) unaccept(pkts []Packet) {
	if len(pkts) == 0 {
		return
	}
	if r.held == nil {
		r.held = make(map[uint64]Packet)
	}
	// The first packet becomes the expected seq again and will come back
	// by retransmission; holding it too would leave a stale entry behind.
	for _, p := range pkts[1:] {
		r.held[p.Seq] = p
	}
	r.next = pkts[0].Seq
}

// cumAck returns the highest contiguous sequence received so far.
func (r *recvFlow) cumAck() uint64 {
	if r.next == 0 {
		return 0
	}
	return r.next - 1
}
