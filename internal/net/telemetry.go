package net

import "chanos/internal/telemetry"

// StackCounters is one netstack shard's counter set. Every field is an
// exported uint64 so telemetry.EmitCounters / SumCounters can walk it
// by reflection at sweep time; the hot path only ever does st.m.X++ on
// the owning shard thread — no shared memory, no atomics.
type StackCounters struct {
	Accepts      uint64 // connections accepted
	AcceptDrops  uint64 // SYNs shed because the listener backlog was full
	RxPackets    uint64 // frames processed off the NIC
	TxPackets    uint64 // packets handed to the NIC
	Delivered    uint64 // payloads handed to sockets
	RecvFull     uint64 // packets shed because a socket buffer was full
	Retransmits  uint64 // packets re-sent on an RTO firing
	GaveUp       uint64 // connections torn down after MaxRetries silent RTOs
	IdleReaped   uint64 // silent connections reaped by the idle sweep
	WindowStalls uint64 // sends queued because the peer's window was shut
}

// Counters folds every shard's private set into one total. Call between
// run slices (or from statd's collector): the fold races with nothing
// because the simulation is not advancing.
func (s *Stack) Counters() StackCounters {
	var out StackCounters
	for _, st := range s.states {
		if st != nil {
			telemetry.SumCounters(&out, &st.m)
		}
	}
	return out
}

// CollectShard implements telemetry.Source: one shard's counters plus
// the gauges only the live connection table can answer — how many
// connections the shard owns, how many out-of-order packets sit in
// reassembly, and how many sends are parked on a shut peer window.
func (s *Stack) CollectShard(shard int, emit func(telemetry.Value)) {
	st := s.states[shard]
	if st == nil {
		return
	}
	telemetry.EmitCounters(&st.m, emit)
	var held, queued int
	for _, c := range st.conns { //chanos:allow mapiter two integer sums; Len only reads the queue, so the fold is order-free
		held += len(c.rcv.held)
		queued += c.snd.queued.Len()
	}
	emit(telemetry.Gauge("Conns", uint64(len(st.conns))))
	emit(telemetry.Gauge("TimeWait", uint64(len(st.closed))))
	emit(telemetry.Gauge("ReassemblyHeld", uint64(held)))
	emit(telemetry.Gauge("SendQueued", uint64(queued)))
	emit(telemetry.Gauge("QueueDepth", uint64(s.svc.Shard(shard).Len())))
}
