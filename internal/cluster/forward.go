// The forwarder: how a thread on one node issues wire requests to
// another node and blocks for the answers. It is the cluster's only
// inter-node client — migration streams, dual-write forwards and map
// broadcasts all ride it — and it obeys the same split every driver
// in this codebase does: the top half is a thread (assign a sequence,
// park on a reply channel), the bottom half is endpoint hooks running
// in engine context (deliver the reply by injecting into the channel).
// Failure is bounded, never hung: the wire's RTO × MaxRetries turns a
// dead destination into OnFail, which wakes every parked caller with
// ok=false — in sequence order, so the failure schedule is as
// deterministic as the success one.
package cluster

import (
	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim/detmap"
	"chanos/internal/store"
)

type forwarder struct {
	n       *Node // node whose threads call (and whose runtime wakes them)
	destID  int
	ep      *net.Endpoint
	opened  bool
	failed  bool
	queue   []store.KVRequest     // sends issued before the handshake completed
	pending map[uint32]*core.Chan // seq → parked caller
	nextSeq uint32
}

// newForwarder dials dest's serving port. The endpoint lives in dest's
// network (each machine models its own ingress); the hooks re-enter
// n's runtime.
func newForwarder(n *Node, dest *Node) *forwarder {
	f := &forwarder{n: n, destID: dest.ID, pending: make(map[uint32]*core.Chan)}
	rt := n.RT
	f.ep = dest.NW.Dial(dest.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) {
			f.opened = true
			for _, req := range f.queue {
				ep.Send(req, req.WireBytes())
			}
			f.queue = nil
		},
		OnMessage: func(_ *net.Endpoint, payload core.Msg, _ int) {
			resp, ok := payload.(store.KVResponse)
			if !ok {
				return
			}
			ch := f.pending[resp.Seq]
			if ch == nil {
				return
			}
			delete(f.pending, resp.Seq)
			rt.InjectSend(ch, resp, 0)
		},
		OnClose: func(*net.Endpoint) { f.fail(rt) },
		OnFail:  func(*net.Endpoint) { f.fail(rt) },
	})
	return f
}

// fail marks the forwarder dead and wakes every parked caller ok=false,
// in sequence order.
func (f *forwarder) fail(rt *core.Runtime) {
	if f.failed {
		return
	}
	f.failed = true
	for _, s := range detmap.Keys(f.pending) {
		ch := f.pending[s]
		delete(f.pending, s)
		rt.InjectSend(ch, store.KVResponse{Seq: s, Err: errForwardDown}, 0)
	}
}

const errForwardDown = "cluster: forward destination unreachable"

// call sends req to the destination and blocks the calling thread for
// the response. ok=false means the destination is unreachable (after
// the wire's bounded retries) — the request may or may not have been
// applied there, which is why everything sent through here must be
// idempotent (WPutV/WDelV/WMapSet all are).
func (f *forwarder) call(t *core.Thread, req store.KVRequest) (store.KVResponse, bool) {
	if f.failed {
		return store.KVResponse{Err: errForwardDown}, false
	}
	f.nextSeq++
	req.Seq = f.nextSeq
	rt := f.n.RT
	ch := t.NewChan(rt.Label("fwd.%d.%d.%d", f.n.ID, f.destID, int(req.Seq)), 1)
	f.pending[req.Seq] = ch
	rt.Eng.After(1, func() {
		if f.failed {
			return // fail() already woke the caller
		}
		if f.opened {
			f.ep.Send(req, req.WireBytes())
		} else {
			f.queue = append(f.queue, req)
		}
	})
	v, ok := ch.Recv(t)
	if !ok {
		return store.KVResponse{Err: errForwardDown}, false
	}
	resp := v.(store.KVResponse)
	if resp.Err == errForwardDown {
		return resp, false
	}
	return resp, true
}

// close tears the connection down (no-op if it never opened or already
// failed).
func (f *forwarder) close() {
	if f.opened && !f.failed {
		f.ep.Close()
	}
}
