package core

import (
	"fmt"

	"chanos/internal/sim/fifo"
)

// Dir says which way a choice case moves data.
type Dir int

const (
	// RecvDir receives from the channel.
	RecvDir Dir = iota
	// SendDir sends to the channel.
	SendDir
)

// waiter is one parked operation on a channel: a blocked sender, a blocked
// receiver, a registered choice case, or an injected (threadless) value
// from a device or the runtime itself. Records are recycled through one
// free list per runtime: a thread's come from its runtime's and go back
// when it wakes or dies (see Thread.newWait), an injected value's from its
// channel's runtime, back when the value is taken or dropped (see
// Runtime.newInjected).
type waiter struct {
	t      *Thread // nil for injected values
	val    Msg     // payload for send-side waiters
	from   int     // sender core for injected values
	choice *choiceRec
	idx    int    // case index within the choice
	gen    uint64 // bumped on every release; a waitRef matches only its own
}

// waitRef is a wait queue's handle on one waiter. A released record may
// wait again at once, on another channel, so a ref remembers the
// generation it was queued at: a choice registration left behind in one
// queue reads as dead once its thread woke, and never aliases the
// record's next wait.
type waitRef struct {
	w   *waiter
	gen uint64
}

func (w *waiter) ref() waitRef { return waitRef{w: w, gen: w.gen} }

// dead reports whether a queued ref no longer stands for a wait: its
// record was released (the thread woke, died or took its value, or the
// injected value was taken or dropped), or another case of its choice
// won. A waiter is queued once, so a popped one leaves no live ref.
func (r waitRef) dead() bool {
	return r.w.gen != r.gen || r.w.choice != nil && r.w.choice.done
}

// release retires w: the generation bump kills every ref still queued,
// and a free record keeps neither its thread nor its value alive.
func (w *waiter) release() {
	*w = waiter{gen: w.gen + 1}
}

// newInjected takes a threadless waiter from rt's free list.
func (rt *Runtime) newInjected(v Msg, from int) *waiter {
	w := rt.waiters.Get()
	w.val, w.from = v, from
	return w
}

// releaseInjected returns a threadless waiter whose value was taken or
// dropped.
func (rt *Runtime) releaseInjected(w *waiter) {
	w.release()
	rt.waiters.Put(w)
}

type bufEntry struct {
	val  Msg
	from int // core the value was sent from, for delivery transit cost
}

// Chan is a lightweight message channel: a first-class endpoint that can
// itself be sent through other channels ("plumb a connection by passing
// around a channel", §3). Capacity 0 gives blocking (rendezvous) send;
// capacity > 0 gives the paper's non-blocking send with queueing.
type Chan struct {
	rt       *Runtime
	id       int
	name     string
	capacity int

	buf      fifo.Queue[bufEntry]
	inflight int // sends charged but not yet arrived at the channel
	// The wait queues borrow their arrays from the channel's runtime
	// (Runtime.waitArrays) while they hold a ref.
	sendq  fifo.Queue[waitRef]
	recvq  fifo.Queue[waitRef]
	closed bool

	// Stats.
	Sends, Recvs uint64
}

// NewChan creates a channel. Capacity 0 means rendezvous semantics.
func (rt *Runtime) NewChan(name string, capacity int) *Chan {
	c := new(Chan)
	rt.initChan(c, name, capacity)
	return c
}

// initChan makes *c a fresh channel of rt, taking rt's next channel id.
func (rt *Runtime) initChan(c *Chan, name string, capacity int) {
	if capacity < 0 {
		panic("core: negative channel capacity")
	}
	*c = Chan{rt: rt, id: rt.nextCh, name: name, capacity: capacity}
	rt.nextCh++
}

// NewChan allocates a fresh channel from thread context, charging a small
// allocation cost. Per-call reply channels (the RPC idiom of §3) use this.
func (t *Thread) NewChan(name string, capacity int) *Chan {
	c := new(Chan)
	t.InitChan(c, name, capacity)
	return c
}

// InitChan is NewChan into storage its caller owns, such as a field of
// the record that holds the channel: it charges the same cycles and
// takes the channel id at the same moment, and allocates nothing. *c
// must not be a channel still in use.
func (t *Thread) InitChan(c *Chan, name string, capacity int) {
	t.Compute(16)
	t.rt.initChan(c, name, capacity)
}

// Name returns the channel's name.
func (c *Chan) Name() string { return c.name }

// Cap returns the channel's capacity.
func (c *Chan) Cap() int { return c.capacity }

// Closed reports whether the channel has been closed.
func (c *Chan) Closed() bool { return c.closed }

// Len returns the number of values queued (arrived) in the buffer.
func (c *Chan) Len() int { return c.buf.Len() }

// Send sends v, blocking until the channel can take it (rendezvous for
// capacity 0, space in the buffer otherwise). Sending on a closed channel
// is a thread fault (the thread dies abnormally; supervision can observe
// it).
func (c *Chan) Send(t *Thread, v Msg) {
	t.do(op{kind: opSend, ch: c, val: v})
}

// TrySend sends v only if it can complete without blocking; it reports
// whether the value was sent.
func (c *Chan) TrySend(t *Thread, v Msg) bool {
	return t.do(op{kind: opSend, ch: c, val: v, try: true}).ready
}

// Recv receives the next value. ok is false only when the channel is
// closed and drained.
func (c *Chan) Recv(t *Thread) (v Msg, ok bool) {
	r := t.do(op{kind: opRecv, ch: c})
	return r.val, r.ok
}

// TryRecv receives a value if one is immediately available. ready is
// false when the operation would have blocked.
func (c *Chan) TryRecv(t *Thread) (v Msg, ok bool, ready bool) {
	r := t.do(op{kind: opRecv, ch: c, try: true})
	return r.val, r.ok, r.ready
}

// Close closes the channel: blocked and future receivers see ok=false
// after the buffer drains; blocked and future senders fault.
func (c *Chan) Close(t *Thread) {
	t.do(op{kind: opClose, ch: c})
}

// CloseAsync closes the channel from engine or harness context.
func (rt *Runtime) CloseAsync(c *Chan) {
	rt.Eng.At(rt.Eng.Now(), func() { rt.closeChan(c) })
}

func (rt *Runtime) closeChan(c *Chan) {
	if c.closed {
		return
	}
	c.closed = true
	now := rt.Eng.Now()
	// Blocked plain senders fault (cf. Go: send on closed channel
	// panics); injected values are dropped; registered choice senders
	// stay parked — send-readiness on a closed channel resolves to a
	// fault only if that case is actually picked.
	for _, r := range c.sendq.Live() {
		if r.dead() {
			continue
		}
		w := r.w
		if w.t != nil && w.choice == nil {
			rt.killThread(w.t, fmt.Errorf("%w: %s", ErrSendClosed, c.name))
		} else if w.t == nil {
			c.rt.releaseInjected(w)
		}
	}
	// Waiting receivers (beyond what the buffer satisfies) see closed.
	if c.buf.Len() == 0 {
		for _, r := range c.recvq.Live() {
			if r.dead() {
				continue
			}
			w := r.w
			res := opResult{ok: false, ready: true}
			if w.choice != nil {
				w.choice.done = true
				res.idx = w.idx
			}
			rt.wakeAt(w.t, now, res)
		}
		rt.waitArrays.Reset(&c.recvq)
	}
}

// InjectSend delivers v to c from outside any thread: device interrupts,
// timer expiry and exit notices use this. fromCore attributes transit
// distance. Delivery is deferred one engine event so InjectSend is safe
// to call from thread context too.
func (rt *Runtime) InjectSend(c *Chan, v Msg, fromCore int) {
	rt.inject.At(rt.Eng.Now(), injection{c: c, v: v, from: fromCore})
}

// injection is one deferred InjectSend or timer tick.
type injection struct {
	c    *Chan
	v    Msg
	from int
}

func (rt *Runtime) injectNow(c *Chan, v Msg, fromCore int) {
	if c.closed {
		return
	}
	now := rt.Eng.Now()
	if r := c.popRecv(); r != nil {
		_, transit := rt.M.MsgCost(fromCore, r.t.core, rt.msgBytes(v))
		rt.traceMsg(c, fromCore, r.t.core, now+transit)
		rt.deliverToReceiver(r, v, now+transit)
		return
	}
	if c.capacity > 0 && c.buf.Len()+c.inflight < c.capacity {
		c.buf.Push(bufEntry{val: v, from: fromCore})
		return
	}
	c.rt.waitArrays.Push(&c.sendq, c.rt.newInjected(v, fromCore).ref())
}

// After returns a fresh channel that receives a single Tick message d
// cycles from now — the timeout building block for Choose.
func (rt *Runtime) After(d uint64) *Chan {
	c := rt.NewChan("timer", 1)
	rt.inject.After(d, injection{c: c, v: Tick{}})
	return c
}

// Tick is the payload delivered by After timers.
type Tick struct{}

// popRecv removes and returns the next live receive waiter, or nil. The
// winner's choice, if any, resolves.
func (c *Chan) popRecv() *waiter {
	for c.recvq.Len() > 0 {
		if r := c.rt.waitArrays.Pop(&c.recvq); !r.dead() {
			w := r.w
			if w.choice != nil {
				w.choice.done = true
			}
			return w
		}
	}
	return nil
}

// popSend removes and returns the next live send waiter, or nil. An
// injected waiter is the caller's to release once it has the value.
func (c *Chan) popSend() *waiter {
	for c.sendq.Len() > 0 {
		if r := c.rt.waitArrays.Pop(&c.sendq); !r.dead() {
			w := r.w
			if w.choice != nil {
				w.choice.done = true
			}
			return w
		}
	}
	return nil
}

func (c *Chan) haveRecvWaiter() bool {
	for _, r := range c.recvq.Live() {
		if !r.dead() {
			return true
		}
	}
	return false
}

func (c *Chan) haveSendWaiter() bool {
	for _, r := range c.sendq.Live() {
		if !r.dead() {
			return true
		}
	}
	return false
}

// recvReady reports whether a receive would complete without blocking.
func (c *Chan) recvReady() bool {
	return c.buf.Len() > 0 || c.haveSendWaiter() || c.closed
}

// sendReady reports whether a send would complete without blocking.
// Sends on closed channels are "ready" in the sense that they complete
// immediately — with a fault.
func (c *Chan) sendReady() bool {
	if c.closed {
		return true
	}
	if c.capacity > 0 {
		return c.buf.Len()+c.inflight < c.capacity
	}
	return c.haveRecvWaiter()
}

// traceMsg reports a delivery to the configured tracer, if any.
func (rt *Runtime) traceMsg(c *Chan, from, to int, at uint64) {
	if rt.Cfg.Tracer != nil {
		rt.Cfg.Tracer.Message(c.name, from, to, at)
	}
}

// deliverToReceiver completes a receive waiter with v at time `when`.
func (rt *Runtime) deliverToReceiver(r *waiter, v Msg, when uint64) {
	res := opResult{val: v, ok: true, ready: true}
	if r.choice != nil {
		res.idx = r.idx
	}
	r.t.received++
	rt.wakeAt(r.t, when, res)
}

// opSend processes a send (or try-send) op for thread t.
func (rt *Runtime) opSend(t *Thread, o op) {
	c := o.ch
	now := rt.Eng.Now()

	if o.try && !c.sendReady() {
		_, end := rt.M.Core(t.core).Reserve(now, pollCost)
		rt.resumeAt(t, end, opResult{ready: false})
		return
	}
	if c.closed {
		// Fault the sender. It currently owns its core; unwind it.
		rt.releaseCore(t)
		rt.killThread(t, fmt.Errorf("%w: %s", ErrSendClosed, c.name))
		return
	}

	v := o.val
	bytes := rt.msgBytes(v)
	var copyCost uint64
	if rt.Cfg.Strict {
		v = deepCopy(v)
		copyCost = uint64(bytes) >> copyShift
		rt.stats.BytesCopied += uint64(bytes)
	}
	senderCycles, _ := rt.M.MsgCost(t.core, t.core, bytes)
	_, end := rt.M.Core(t.core).Reserve(now, senderCycles+copyCost)
	rt.stats.Sends++
	rt.stats.BytesSent += uint64(bytes)
	c.Sends++
	t.sent++
	rt.M.Core(t.core).MsgsSent++
	rt.M.Core(t.core).BytesSent += uint64(bytes)

	rt.sendAt(t, end, c, v, bytes, -1)
}

// finishSendIdx completes a send once the sender has paid its local cost.
// idx >= 0 marks a send executed as a choice case.
func (rt *Runtime) finishSendIdx(t *Thread, c *Chan, v Msg, bytes int, idx int) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	now := rt.Eng.Now()
	doneRes := opResult{ready: true, ok: true}
	if idx >= 0 {
		doneRes.idx = idx
	}
	if r := c.popRecv(); r != nil {
		_, transit := rt.M.MsgCost(t.core, r.t.core, bytes)
		arrival := now + transit
		rt.traceMsg(c, t.core, r.t.core, arrival)
		rt.deliverToReceiver(r, v, arrival)
		if c.capacity == 0 {
			// Rendezvous: the sender resumes when the receiver has the
			// value.
			rt.stats.Rendezvous++
			t.state = tBlocked
			rt.releaseCore(t)
			rt.wakeAt(t, arrival, doneRes)
		} else {
			rt.resumeInPlace(t, doneRes)
		}
		return
	}
	if c.capacity > 0 && c.buf.Len()+c.inflight < c.capacity {
		// Fire and forget: the value travels to the channel's buffer.
		c.inflight++
		rt.land.At(now+rt.M.P.InjectCycles, landing{c: c, v: v, from: t.core, bytes: bytes})
		rt.resumeInPlace(t, doneRes)
		return
	}
	// Block: rendezvous with no receiver, or buffer full.
	w := t.newWait()
	w.val, w.from = v, t.core
	if idx >= 0 {
		// A picked choice send that raced to non-ready: register as a
		// resolved-choice waiter so completion carries the index.
		w.idx = idx
		w.choice = &choiceRec{}
	}
	c.rt.waitArrays.Push(&c.sendq, w.ref())
	t.state = tBlocked
	rt.releaseCore(t)
}

// landing is a buffered send on its way into the channel's buffer.
type landing struct {
	c           *Chan
	v           Msg
	from, bytes int
}

// landSend puts a buffered send's value into its channel once it has
// travelled there, handing it straight on to a receiver that blocked
// meanwhile.
func (rt *Runtime) landSend(l landing) {
	c := l.c
	c.inflight--
	c.buf.Push(bufEntry{val: l.v, from: l.from})
	if r := c.popRecv(); r != nil {
		e := c.buf.Pop()
		_, transit := rt.M.MsgCost(e.from, r.t.core, l.bytes)
		rt.deliverToReceiver(r, e.val, rt.Eng.Now()+transit)
	}
}

// opRecv processes a receive (or try-receive) op for thread t.
func (rt *Runtime) opRecv(t *Thread, o op) {
	c := o.ch
	now := rt.Eng.Now()

	if o.try && !c.recvReady() {
		_, end := rt.M.Core(t.core).Reserve(now, pollCost)
		rt.resumeAt(t, end, opResult{ready: false})
		return
	}

	_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.MsgRecvCost)
	rt.recvAt(t, end, c, -1)
}

// finishRecvIdx completes a receive once the receiver has paid its local
// dequeue cost. idx >= 0 marks a receive executed as a choice case.
func (rt *Runtime) finishRecvIdx(t *Thread, c *Chan, idx int) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	now := rt.Eng.Now()
	rt.stats.Recvs++
	c.Recvs++
	rt.M.Core(t.core).MsgsRecvd++
	withIdx := func(r opResult) opResult {
		if idx >= 0 {
			r.idx = idx
		}
		return r
	}

	if c.buf.Len() > 0 {
		e := c.buf.Pop()
		bytes := rt.msgBytes(e.val)
		_, transit := rt.M.MsgCost(e.from, t.core, bytes)
		// Freeing buffer space may unblock a parked sender.
		if s := c.popSend(); s != nil {
			rt.promoteSender(c, s, now)
		}
		t.received++
		t.state = tBlocked
		rt.releaseCore(t)
		rt.traceMsg(c, e.from, t.core, now+transit)
		rt.wakeAt(t, now+transit, withIdx(opResult{val: e.val, ok: true, ready: true}))
		return
	}
	if s := c.popSend(); s != nil {
		if s.t == nil {
			// Injected value.
			v, from := s.val, s.from
			c.rt.releaseInjected(s)
			bytes := rt.msgBytes(v)
			_, transit := rt.M.MsgCost(from, t.core, bytes)
			t.received++
			t.state = tBlocked
			rt.releaseCore(t)
			rt.wakeAt(t, now+transit, withIdx(opResult{val: v, ok: true, ready: true}))
			return
		}
		// Rendezvous with a blocked sender (or a choice send case).
		bytes := rt.msgBytes(s.val)
		_, transit := rt.M.MsgCost(s.t.core, t.core, bytes)
		arrival := now + transit
		rt.traceMsg(c, s.t.core, t.core, arrival)
		rt.stats.Rendezvous++
		sRes := opResult{ready: true, ok: true}
		if s.choice != nil {
			sRes.idx = s.idx
		}
		rt.wakeAt(s.t, arrival, sRes)
		t.received++
		t.state = tBlocked
		rt.releaseCore(t)
		rt.wakeAt(t, arrival, withIdx(opResult{val: s.val, ok: true, ready: true}))
		return
	}
	if c.closed {
		rt.resumeInPlace(t, withIdx(opResult{ok: false, ready: true}))
		return
	}
	// Block.
	w := t.newWait()
	if idx >= 0 {
		w.idx = idx
		w.choice = &choiceRec{}
	}
	c.rt.waitArrays.Push(&c.recvq, w.ref())
	t.state = tBlocked
	rt.releaseCore(t)
}

// promoteSender completes a previously blocked sender whose value can now
// enter the channel buffer.
func (rt *Runtime) promoteSender(c *Chan, s *waiter, now uint64) {
	if s.t == nil {
		c.buf.Push(bufEntry{val: s.val, from: s.from})
		c.rt.releaseInjected(s)
		return
	}
	c.buf.Push(bufEntry{val: s.val, from: s.t.core})
	res := opResult{ready: true, ok: true}
	if s.choice != nil {
		res.idx = s.idx
	}
	rt.wakeAt(s.t, now, res)
}

// Call implements the paper's RPC idiom: "c <- (a, b, c1); r <- c1" — send
// the argument with a fresh reply channel, then receive the reply.
func (t *Thread) Call(svc *Chan, arg Msg) (Msg, bool) {
	reply := t.NewChan(svc.name+".reply", 1)
	svc.Send(t, Call{Arg: arg, Reply: reply})
	return reply.Recv(t)
}

// Call is the standard request envelope used by Thread.Call and the
// kernel's service protocol.
type Call struct {
	Arg   Msg
	Reply *Chan
}
