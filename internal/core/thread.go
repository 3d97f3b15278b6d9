package core

import (
	"errors"
	"fmt"

	"chanos/internal/sim"
)

// Msg is a message payload. Messages "can typically be any language
// value" (§3) — including channels themselves.
type Msg = any

type tstate int

const (
	tReady tstate = iota
	tRunning
	tBlocked
	tDead
)

type opKind int

const (
	opCompute opKind = iota
	opSleep
	opYield
	opSpawn
	opSend
	opRecv
	opChoose
	opClose
	opKill
	opPark
	opUnpark
	opExit
)

type op struct {
	kind   opKind
	cycles uint64
	ch     *Chan
	val    Msg
	try    bool
	cases  []Case
	victim *Thread
	exit   error
}

type opResult struct {
	val    Msg
	ok     bool
	ready  bool
	idx    int
	thread *Thread
	poison error
}

type spawnReq struct {
	name string
	fn   func(*Thread)
	arg  any
	hint PlaceHint
}

// SpawnOpt adjusts thread placement at spawn time.
type SpawnOpt func(*spawnReq)

// OnCore pins the new thread to a specific core.
func OnCore(c int) SpawnOpt { return func(r *spawnReq) { r.hint.Core = c } }

// Near asks the scheduler to place the new thread close to t — the
// locality hint placement policies use (§5 "which groups of threads to
// place together").
func Near(t *Thread) SpawnOpt { return func(r *spawnReq) { r.hint.Near = t } }

// Sentinel exit reasons.
var (
	// ErrKilled marks a thread terminated by Kill or Shutdown.
	ErrKilled = errors.New("killed")
	// ErrSendClosed is the fault raised by sending on a closed channel.
	ErrSendClosed = errors.New("send on closed channel")
)

type exitNormal struct{}

func (exitNormal) Error() string { return "normal exit" }

// PanicError wraps a recovered panic value as a thread exit reason.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ExitNotice is delivered to monitor channels when a thread dies. This
// is the paper's upward notification flow: thread death is just another
// message.
type ExitNotice struct {
	TID    int
	Name   string
	Reason error // nil for normal exit
	Abnorm bool  // true if the exit was a fault
}

// Thread is a lightweight thread: "in this model threads are also
// lightweight, so typically starting one is easy" (§3).
type Thread struct {
	rt   *Runtime
	id   int
	name string
	core int

	state   tstate
	w       *worker // the coroutine running the thread, nil once dead
	pending opResult
	wake    sim.Timer  // scheduled compute/sleep completion, if any
	waits   []*waiter  // live wait-queue registrations, for cancellation
	waitBuf [2]*waiter // waits' first array: a Recv, Send or two-case Choose

	// The thread's pending continuation, which its worker's step runs
	// (see armStep). A thread never has more than one of its own
	// continuations in flight, so one set of operand fields serves every
	// kind; stepKind is stepNone when none is pending.
	stepKind  stepKind
	stepRT    *Runtime
	stepCh    *Chan
	stepVal   Msg
	stepBytes int
	stepIdx   int
	stepRes   opResult
	stepPeer  *Thread // stepSpawn's child, stepKill's and stepUnpark's victim

	replyCh Chan // synchronous-call reply channel, made by ReplyChan

	fn       func(*Thread) // the thread's body, run by its worker
	arg      any           // SpawnArg's operand (see Arg)
	spawnReq spawnReq      // the child Spawn asks for, until the engine makes it

	monitors []*Chan

	parked bool // blocked in Park
	permit bool // Unpark arrived before Park

	segStart sim.Time // when this thread last gained its core (tracing)

	exitReason error
}

// ID returns the thread id (unique within the runtime).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is currently placed on.
func (t *Thread) Core() int { return t.core }

// Now returns the current virtual time. Safe to call from thread code:
// the engine is quiescent while user code runs.
func (t *Thread) Now() sim.Time { return t.rt.Eng.Now() }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ExitReason reports why a dead thread exited (nil = normal). Valid once
// the thread is dead; monitors receive the same information as a message.
func (t *Thread) ExitReason() error {
	if _, ok := t.exitReason.(exitNormal); ok {
		return nil
	}
	return t.exitReason
}

// Dead reports whether the thread has exited.
func (t *Thread) Dead() bool { return t.state == tDead }

// ReplyChan returns the thread's reply channel for synchronous calls,
// made by t.InitChan(…, "syscall.reply", 1) at its first one, in the
// Thread's own storage. A thread has at most one synchronous call
// outstanding, whichever kernel or server it calls, so one channel
// serves all of them, and it lives exactly as long as the thread:
// nothing keyed by thread id outlives a dead caller.
func (t *Thread) ReplyChan() *Chan {
	if t.replyCh.rt == nil {
		t.InitChan(&t.replyCh, "syscall.reply", 1)
	}
	return &t.replyCh
}

// Arg returns the operand the thread was spawned with by SpawnArg (nil
// for any other thread, and once the thread is dead).
func (t *Thread) Arg() any { return t.arg }

// do yields one operation to the engine and resumes with its result. A
// poison result unwinds the thread (kill).
func (t *Thread) do(o op) opResult {
	w := t.w
	w.yield(o)
	r := w.take()
	if r.poison != nil {
		panic(r.poison)
	}
	return r
}

// Compute charges n cycles of computation on the thread's current core.
func (t *Thread) Compute(n uint64) {
	if n == 0 {
		return
	}
	t.do(op{kind: opCompute, cycles: n})
}

// Sleep blocks the thread for d cycles without occupying its core.
func (t *Thread) Sleep(d uint64) { t.do(op{kind: opSleep, cycles: d}) }

// Yield releases the core to the next runnable thread.
func (t *Thread) Yield() { t.do(op{kind: opYield}) }

// Spawn starts fn as a new lightweight thread — the paper's
// `start { foo(); }`. The spawn cost is charged to the parent.
func (t *Thread) Spawn(name string, fn func(*Thread), opts ...SpawnOpt) *Thread {
	t.spawnReq = spawnReq{name: name, fn: fn, hint: PlaceHint{Core: -1}}
	for _, o := range opts {
		o(&t.spawnReq)
	}
	return t.do(op{kind: opSpawn}).thread
}

// SpawnArg is Spawn for a body that many threads share, such as a
// per-connection handler: fn is bound once by its caller, and each
// thread's own operand travels as arg, which fn reads with t.Arg(). It
// costs what Spawn costs, in cycles and in events, and no closure per
// thread.
func (t *Thread) SpawnArg(name string, fn func(*Thread), arg any) *Thread {
	t.spawnReq = spawnReq{name: name, fn: fn, arg: arg, hint: PlaceHint{Core: -1}}
	return t.do(op{kind: opSpawn}).thread
}

// Exit terminates the thread immediately with a normal exit.
func (t *Thread) Exit() { panic(exitNormal{}) }

// Fail terminates the thread abnormally with the given reason; monitors
// observe it.
func (t *Thread) Fail(reason error) { panic(reason) }

// finish turns what a thread's unwinding recovered (nil for a normal
// return, Exit, Fail, Kill poison, or a genuine panic) into its exit
// reason.
func finish(recovered any) error {
	switch v := recovered.(type) {
	case nil:
		return exitNormal{}
	case error:
		return v
	default:
		return PanicError{Value: v}
	}
}

// Monitor registers notify to receive an ExitNotice when other dies.
// Monitoring is unidirectional and never kills the watcher.
func (t *Thread) Monitor(other *Thread, notify *Chan) {
	if other == nil {
		return
	}
	if other.state == tDead {
		// Already dead: deliver immediately, preserving the guarantee
		// that a monitor always fires exactly once.
		t.rt.notifyExit(other, notify)
		return
	}
	other.monitors = append(other.monitors, notify)
}

// Park blocks the thread until some other thread Unparks it. One permit
// is buffered: an Unpark delivered before Park makes the Park return
// immediately. Park/Unpark are the building blocks for the shared-memory
// baseline's queued locks.
func (t *Thread) Park() { t.do(op{kind: opPark}) }

// Unpark wakes other from Park (or banks a permit if it is not parked).
// Unparking a dead thread is a no-op.
func (t *Thread) Unpark(other *Thread) {
	if other == nil {
		return
	}
	t.do(op{kind: opUnpark, victim: other})
}

// Kill terminates another thread abnormally (reason ErrKilled).
func (t *Thread) Kill(victim *Thread) {
	if victim == nil {
		return
	}
	if victim.id == t.id {
		panic(ErrKilled)
	}
	t.do(op{kind: opKill, victim: victim})
}

// threadExit processes an exit op on the engine side.
func (rt *Runtime) threadExit(t *Thread, reason error) {
	if t.state == tDead {
		return
	}
	t.state = tDead
	t.exitReason = reason
	rt.cores[t.core].assigned--
	rt.stats.Exits++
	rt.cancelWake(t)
	t.cancelWaits()
	rt.releaseCore(t)

	_, abnormal := exitKind(reason)
	if rt.Cfg.Tracer != nil {
		rt.Cfg.Tracer.Exit(t.id, t.name, rt.Eng.Now(), abnormal)
	}
	for _, ch := range t.monitors {
		rt.notifyExit(t, ch)
	}
	t.monitors = nil
	delete(rt.threads, t.id)
	t.fn, t.arg = nil, nil
	t.letGo()
}

// letGo puts a dead thread's worker back on its runtime's idle list once
// no step of the thread is pending. The worker has returned from t's run
// and yielded its exit, so it holds nothing of t's but the step: a
// thread that dies with one pending (a wake on its way, say) keeps its
// worker until the step has fired, so that the step runs against t and
// never against the next thread the worker runs.
func (t *Thread) letGo() {
	if t.state != tDead || t.w == nil || t.stepKind != stepNone {
		return
	}
	t.w.t = nil
	t.rt.idle.Put(t.w)
	t.w = nil
}

func exitKind(reason error) (normal, abnormal bool) {
	if reason == nil {
		return true, false
	}
	if _, ok := reason.(exitNormal); ok {
		return true, false
	}
	return false, true
}

// notifyExit sends the dead thread t's ExitNotice on ch.
func (rt *Runtime) notifyExit(t *Thread, ch *Chan) {
	_, abnormal := exitKind(t.exitReason)
	n := ExitNotice{TID: t.id, Name: t.name, Abnorm: abnormal}
	if abnormal {
		n.Reason = t.exitReason
	}
	rt.InjectSend(ch, n, t.core)
}

// killThread forcibly unwinds a thread from the engine side. The victim's
// coroutine is resumed with a poison result, which panics through user
// code. This is fail-stop: a deferred function still runs, but every
// runtime operation it tries is answered with the poison too, so the
// unwinding thread charges no cycles, sends nothing and wakes no one,
// and the loop ends at its exit op. Core and run-queue bookkeeping
// happens in threadExit. The thread may be Ready (queued with a pending
// result), Blocked (no queue position), Running-but-parked (mid
// Compute) or not yet started; in every case its coroutine is suspended,
// waiting for its next resumption.
func (rt *Runtime) killThread(t *Thread, reason error) {
	if t.state == tDead {
		return
	}
	rt.stats.Kills++
	rt.cancelWake(t)
	t.cancelWaits()
	for {
		t.w.in = opResult{poison: reason}
		if o, _ := t.w.next(); o.kind == opExit {
			rt.threadExit(t, o.exit)
			return
		}
	}
}

// newWait takes a waiter from its runtime's free list and registers it
// in t.waits; the caller fills it and queues its ref.
func (t *Thread) newWait() *waiter {
	w := t.rt.waiters.Get()
	w.t = t
	t.waits = append(t.waits, w)
	return w
}

// cancelWaits removes the thread from every channel wait queue: each
// registration is released, so the refs still queued read as dead, and
// goes back on the free list.
func (t *Thread) cancelWaits() {
	for _, w := range t.waits {
		w.release()
		t.rt.waiters.Put(w)
	}
	clear(t.waits)
	t.waits = t.waits[:0]
}

// cancelWake disarms t's pending compute or sleep completion. An armed
// wake of either kind is the thread's pending step, so the step is
// cleared with it; a choice poll's wake is no step, and none is pending
// while it is armed.
func (rt *Runtime) cancelWake(t *Thread) {
	if t.wake.Armed() {
		rt.Eng.Cancel(t.wake)
		t.stepKind, t.stepRT, t.stepRes = stepNone, nil, opResult{}
	}
}

// stepKind names the continuation a thread's step runs.
type stepKind uint8

const (
	stepNone    stepKind = iota
	stepResume           // resumeInPlace(t, stepRes)
	stepWake             // wakeWith(t, stepRes)
	stepSend             // finishSendIdx(t, stepCh, stepVal, stepBytes, stepIdx)
	stepRecv             // finishRecvIdx(t, stepCh, stepIdx)
	stepCompute          // computeDone(t)
	stepSpawn            // makeReady(stepPeer), then resume t with it
	stepClose            // closeChan(stepCh), then resumeInPlace(t)
	stepKill             // killThread(stepPeer), then resumeInPlace(t)
	stepUnpark           // unpark(stepPeer), then resumeInPlace(t)
)

// armStep schedules t's step of kind k at time at; the caller fills the
// operand fields k reads. The engine callback is t's worker's step,
// bound once per worker. The step runs on rt, the runtime arming it,
// which is not always t's own: a channel shared across machines lets one
// runtime complete another's thread. Arming a second step while one is
// pending panics: two engine callbacks racing to continue one thread is
// a broken invariant, and it must fail loudly rather than reorder events.
func (rt *Runtime) armStep(t *Thread, k stepKind, at sim.Time) sim.Timer {
	if t.stepKind != stepNone {
		panic(fmt.Sprintf("core: thread %q arms step %d while step %d is pending", t.name, k, t.stepKind))
	}
	t.stepKind, t.stepRT = k, rt
	return rt.Eng.At(at, t.w.step)
}

// resumeAt continues t, which keeps its core, with res at time at.
func (rt *Runtime) resumeAt(t *Thread, at sim.Time, res opResult) {
	rt.armStep(t, stepResume, at)
	t.stepRes = res
}

// wakeAt makes the blocked t runnable with res at time at.
func (rt *Runtime) wakeAt(t *Thread, at sim.Time, res opResult) sim.Timer {
	tm := rt.armStep(t, stepWake, at)
	t.stepRes = res
	return tm
}

// sendAt finishes t's send of v on c (choice case idx, or -1) at time at.
func (rt *Runtime) sendAt(t *Thread, at sim.Time, c *Chan, v Msg, bytes, idx int) {
	rt.armStep(t, stepSend, at)
	t.stepCh, t.stepVal, t.stepBytes, t.stepIdx = c, v, bytes, idx
}

// recvAt finishes t's receive on c (choice case idx, or -1) at time at.
func (rt *Runtime) recvAt(t *Thread, at sim.Time, c *Chan, idx int) {
	rt.armStep(t, stepRecv, at)
	t.stepCh, t.stepIdx = c, idx
}

// runStep is the body of w.step: it runs the pending step of w's
// thread, then lets the worker go if that thread is dead and has no
// step left (see letGo). The thread is read before the step runs,
// because a thread that dies in its own step lets its worker go at once,
// and a spawn later in the same step may hand the worker a new thread.
func (w *worker) runStep() {
	t := w.t
	t.runStep()
	t.letGo()
}

// runStep runs t's pending step. It clears the pending step before
// running it, so the continuation may arm the next one.
func (t *Thread) runStep() {
	rt, k, c, v, bytes, idx, res, p := t.stepRT, t.stepKind, t.stepCh, t.stepVal, t.stepBytes, t.stepIdx, t.stepRes, t.stepPeer
	t.stepKind, t.stepRT, t.stepCh, t.stepVal, t.stepRes, t.stepPeer = stepNone, nil, nil, nil, opResult{}, nil
	switch k {
	case stepResume:
		rt.resumeInPlace(t, res)
	case stepWake:
		rt.wakeWith(t, res)
	case stepSend:
		rt.finishSendIdx(t, c, v, bytes, idx)
	case stepRecv:
		rt.finishRecvIdx(t, c, idx)
	case stepCompute:
		rt.computeDone(t)
	case stepSpawn:
		rt.makeReady(p)
		if t.state != tDead {
			rt.resumeThread(t, opResult{thread: p})
		}
	case stepClose:
		rt.closeChan(c)
		rt.resumeInPlace(t, opResult{})
	case stepKill:
		rt.killThread(p, ErrKilled)
		rt.resumeInPlace(t, opResult{})
	case stepUnpark:
		rt.unpark(p)
		rt.resumeInPlace(t, opResult{})
	default:
		panic(fmt.Sprintf("core: thread %q step fired with none pending", t.name))
	}
}
