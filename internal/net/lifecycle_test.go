package net

import (
	"testing"

	"chanos/internal/core"
)

// A connection retired while its RTO is armed is not recycled. Its
// stale timer still fires, reads the record's id and injects an rto for
// the old connection, which finds nothing to do. Reused, the record
// would carry the next connection's id by then.
func TestRetiredWithArmedRTOIsNotReused(t *testing.T) {
	w := newTW(8, 1, DefaultWireParams(), 7)
	defer w.rt.Shutdown()
	w.echoServer(1000)
	var ping core.Msg = "ping"
	first := w.nw.Dial(80, EndpointHooks{OnOpen: func(ep *Endpoint) { ep.Send(ping, 64) }})
	st := w.st.states[0]
	// The server's echo arms its RTO until the client's ack lands.
	var old *stackConn
	for old == nil || !old.rto.Armed() {
		if !w.eng.Step() {
			t.Fatal("the server never armed an RTO")
		}
		old = st.conns[first.ID]
	}
	w.st.retire(st, old, false)

	closed := false
	second := w.nw.Dial(80, EndpointHooks{
		OnOpen:    func(ep *Endpoint) { ep.Send(ping, 64) },
		OnMessage: func(ep *Endpoint, _ core.Msg, _ int) { ep.Close() },
		OnClose:   func(*Endpoint) { closed = true },
	})
	for st.conns[second.ID] == nil {
		if !w.eng.Step() {
			t.Fatal("the second connection was never accepted")
		}
	}
	if st.conns[second.ID] == old {
		t.Fatal("the next SYN reused a record retired with its RTO armed")
	}
	w.rt.Run()
	if old.rto.Armed() || old.id != first.ID {
		t.Fatalf("stale record: RTO armed %v, id %d (want %d)", old.rto.Armed(), old.id, first.ID)
	}
	if c := w.st.Counters(); c.Retransmits != 0 || c.GaveUp != 0 || !closed {
		t.Fatalf("stale RTO acted: %d retransmits, %d gave up, second closed %v", c.Retransmits, c.GaveUp, closed)
	}
}

// A server that closes first retires its connection when the client's
// FIN arrives, on rx's FIN path, and only after it has built the final
// ACK from the record: the client's FIN is acknowledged (no
// retransmission, the endpoint reaps cleanly), the id enters TIME_WAIT
// as a clean close, and the record goes back on the shard's free list.
func TestServerFirstCloseRetiresOnClientFin(t *testing.T) {
	w := newTW(8, 1, DefaultWireParams(), 7)
	defer w.rt.Shutdown()
	l := w.st.Listen(80)
	w.rt.Boot("accept", func(t *core.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			c.Close(t)
		}
	})
	st := w.st.states[0]
	waiting := false
	ep := w.nw.Dial(80, EndpointHooks{OnClose: func(ep *Endpoint) {
		// Close once the ack of the server's FIN has landed, so that
		// the client's FIN is all the server still waits for.
		w.eng.After(20*w.nw.P.DelayCycles, func() {
			c := st.conns[ep.ID]
			waiting = c != nil && c.finSent && !c.finRcvd && c.snd.done()
			ep.Close()
		})
	}})
	w.rt.Run()
	if !waiting {
		t.Fatal("the server's connection was not waiting for the client's FIN alone: the case tests nothing")
	}
	if rec, was := st.closed[ep.ID]; len(st.conns) != 0 || !was || !rec.clean {
		t.Fatalf("%d connections live, TIME_WAIT entry %v (clean %v), want none live and a clean entry", len(st.conns), was, rec.clean)
	}
	if st.free.Len() != 1 {
		t.Fatalf("%d stack records free after the close, want 1", st.free.Len())
	}
	if w.nw.Retransmits != 0 || w.nw.GaveUp != 0 || w.nw.flows.Len() != 1 {
		t.Fatalf("the client's FIN went unanswered: %d retransmits, %d gave up, %d flow records reaped (want 0, 0, 1)",
			w.nw.Retransmits, w.nw.GaveUp, w.nw.flows.Len())
	}
}

// A recycled stackConn starts clean: whatever its last connection left
// in it, the SYN that reuses it sees fresh sequence state, no held or
// queued packets, no retries, no FIN either way, no timer, the default
// window and a new socket channel.
func TestReusedStackConnStartsClean(t *testing.T) {
	w := newTW(8, 1, DefaultWireParams(), 7)
	defer w.rt.Shutdown()
	w.echoServer(1000)
	st := w.st.states[0]
	oldCh := w.rt.NewChan("old", 4)
	dirty := &stackConn{id: 99, port: 81, recvCh: oldCh, finSent: true, finRcvd: true, retries: 5, lastRx: 1, rtoFrom: 3}
	dirty.snd.setWindow(1, 0)
	dirty.snd.submit(Packet{Flags: DATA, Payload: "sent"})
	dirty.snd.submit(Packet{Flags: DATA, Payload: "queued"})
	dirty.rcv.accept(Packet{Seq: 1, Flags: DATA})
	dirty.rcv.accept(Packet{Seq: 3, Flags: DATA})
	if dirty.snd.unacked.Len() != 1 || dirty.snd.queued.Len() != 1 || len(dirty.rcv.held) != 1 {
		t.Fatal("the record is not dirty")
	}
	st.free.Put(dirty)

	ep := w.nw.Dial(80, EndpointHooks{})
	for st.conns[ep.ID] == nil {
		if !w.eng.Step() {
			t.Fatal("the connection was never accepted")
		}
	}
	c := st.conns[ep.ID]
	if c != dirty {
		t.Fatal("the SYN did not reuse the retired record")
	}
	if c.id != ep.ID || c.port != 80 || c.lastRx == 1 || c.rtoFire == nil {
		t.Fatalf("identity: id %d port %d lastRx %d rtoFire bound %v", c.id, c.port, c.lastRx, c.rtoFire != nil)
	}
	if c.snd.nextSeq != 0 || c.snd.unacked.Len() != 0 || c.snd.queued.Len() != 0 || len(c.snd.out) != 0 ||
		c.snd.wnd != defaultWindow || c.snd.wndAck != 0 {
		t.Fatalf("send flow not fresh: %+v", c.snd)
	}
	if c.rcv.next != 0 || len(c.rcv.held) != 0 || len(c.rcv.run) != 0 {
		t.Fatalf("receive flow not fresh: %+v", c.rcv)
	}
	if c.finSent || c.finRcvd || c.retries != 0 || c.rtoFrom != 0 || c.rto.Armed() {
		t.Fatalf("state not fresh: finSent %v finRcvd %v retries %d rtoFrom %d armed %v",
			c.finSent, c.finRcvd, c.retries, c.rtoFrom, c.rto.Armed())
	}
	if c.recvCh == oldCh || c.recvCh.Len() != 0 || c.recvCh.Cap() != w.st.P.RecvBuf {
		t.Fatal("the reused record kept its old socket channel")
	}
}

// After heavy churn through recycled records, a core dump's shard
// snapshot lists exactly the live connections, each under its own id
// and with the state one connection of this workload can reach: at most
// three responses and a FIN sent, three requests and a FIN received.
func TestSnapshotAfterChurnListsLiveConns(t *testing.T) {
	w := newTW(16, 2, DefaultWireParams(), 9)
	defer w.rt.Shutdown()
	w.echoServer(500)
	NewClientPool(w.nw, ClientParams{Port: 80, Clients: 24, ReqsPerConn: 3, ThinkCycles: 2000, Seed: 9})
	w.rt.RunFor(6_000_000)
	live := 0
	for i, sn := range w.st.SnapshotShards() {
		st := w.st.states[i]
		if len(sn.Conns) != len(st.conns) {
			t.Fatalf("shard %d: snapshot lists %d connections, table holds %d", i, len(sn.Conns), len(st.conns))
		}
		seen := make(map[*stackConn]bool)
		for _, cs := range sn.Conns {
			c := st.conns[ConnID(cs.ID)]
			if c == nil || c.id != ConnID(cs.ID) || seen[c] {
				t.Fatalf("shard %d: connection %d is not a live record of its own", i, cs.ID)
			}
			seen[c] = true
			if cs.Port != 80 || cs.NextSeq > 4 || cs.RecvNext > 5 || cs.Retries != 0 {
				t.Fatalf("shard %d: connection %d carries stale state: %+v", i, cs.ID, cs)
			}
		}
		live += len(sn.Conns)
	}
	if acc := w.st.Counters().Accepts; live == 0 || acc < 20*uint64(live) {
		t.Fatalf("%d accepts, %d live: not heavy churn", acc, live)
	}
}

// Send and Close on a cleanly reaped endpoint are no-ops: they schedule
// nothing and put nothing on the wire, and the flows the endpoint
// handed back serve the next Dial, fresh.
func TestReapedEndpointIsInert(t *testing.T) {
	w := newTW(8, 2, DefaultWireParams(), 3)
	defer w.rt.Shutdown()
	w.echoServer(1000)
	var ping core.Msg = "ping"
	ep := w.nw.Dial(80, EndpointHooks{
		OnOpen:    func(ep *Endpoint) { ep.Send(ping, 64) },
		OnMessage: func(ep *Endpoint, _ core.Msg, _ int) { ep.Close() },
	})
	flows := ep.flows
	w.rt.Run()
	if ep.flows != nil || w.nw.eps[ep.ID] != nil || flows.ep != nil {
		t.Fatal("the endpoint was not reaped")
	}
	fired, toHost := w.eng.Fired(), w.nw.ToHost
	ep.Send(ping, 64)
	ep.Close()
	w.rt.Run()
	if w.eng.Fired() != fired || w.nw.ToHost != toHost || w.nw.WindowDeferred != 0 {
		t.Fatalf("a reaped endpoint acted: %d events, %d packets to the host", w.eng.Fired()-fired, w.nw.ToHost-toHost)
	}
	next := w.nw.Dial(80, EndpointHooks{})
	if next.flows != flows || flows.ep != next {
		t.Fatal("the next Dial did not reuse the reaped endpoint's flows")
	}
	if flows.snd.nextSeq != 0 || flows.snd.unacked.Len() != 0 || flows.rcv.next != 0 || flows.snd.wnd != 0 {
		t.Fatalf("reused flows not fresh: %+v / %+v", flows.snd, flows.rcv)
	}
}
