package net

import (
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// ConnSnapshot is one connection's netstack state as captured into a
// machine core dump: sequence horizons, buffer and reassembly
// occupancy, retransmission state. Payload contents are not carried —
// occupancy counts identify a wedged flow; the store sections carry
// the durable data.
type ConnSnapshot struct {
	ID             int      `json:"id"`
	Port           int      `json:"port"`
	NextSeq        uint64   `json:"next_seq"`
	RecvNext       uint64   `json:"recv_next"`
	SendUnacked    int      `json:"send_unacked"`
	SendQueued     int      `json:"send_queued"`
	Window         int      `json:"window"`
	RecvBuffered   int      `json:"recv_buffered"`
	ReassemblyHeld int      `json:"reassembly_held"`
	FinSent        bool     `json:"fin_sent,omitempty"`
	FinRcvd        bool     `json:"fin_rcvd,omitempty"`
	Retries        int      `json:"retries,omitempty"`
	RTOArmed       bool     `json:"rto_armed,omitempty"`
	LastRx         sim.Time `json:"last_rx"`
}

// StackShardSnapshot is one netstack shard's connection table and
// counter set, connections sorted by id.
type StackShardSnapshot struct {
	Shard    int            `json:"shard"`
	TimeWait int            `json:"time_wait"`
	Conns    []ConnSnapshot `json:"conns,omitempty"`
	Counters StackCounters  `json:"counters"`
}

// SnapshotShards captures every shard's private connection table in
// shard order. Read-only on the shards; safe between engine events
// (the same single-goroutine window statd's collector uses).
func (s *Stack) SnapshotShards() []StackShardSnapshot {
	out := make([]StackShardSnapshot, 0, len(s.states))
	for i, st := range s.states {
		if st == nil {
			out = append(out, StackShardSnapshot{Shard: i})
			continue
		}
		snap := StackShardSnapshot{Shard: i, TimeWait: len(st.closed), Counters: st.m}
		for _, id := range detmap.Keys(st.conns) {
			c := st.conns[id]
			snap.Conns = append(snap.Conns, ConnSnapshot{
				ID:             int(id),
				Port:           c.port,
				NextSeq:        c.snd.nextSeq,
				RecvNext:       c.rcv.next,
				SendUnacked:    c.snd.unacked.Len(),
				SendQueued:     c.snd.queued.Len(),
				Window:         c.snd.wnd,
				RecvBuffered:   c.recvCh.Len(),
				ReassemblyHeld: len(c.rcv.held),
				FinSent:        c.finSent,
				FinRcvd:        c.finRcvd,
				Retries:        c.retries,
				RTOArmed:       c.rto.Armed(),
				LastRx:         c.lastRx,
			})
		}
		out = append(out, snap)
	}
	return out
}
