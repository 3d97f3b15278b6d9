// Package core implements the paper's primary contribution: a runtime for
// lightweight threads and lightweight message channels (Hoare CSP /
// pi-calculus style, as in Erlang, Newsqueak and Go) executing on the
// simulated many-core machine.
//
// Threads are coroutines, and exactly one runs at a time: every runtime
// operation (Compute, Send, Recv, Choose, Spawn, ...) yields control back
// to the single engine goroutine, which charges virtual cycles from the
// machine cost model and resumes threads in deterministic event order. A
// switch between the engine and a thread is a coroutine switch
// (iter.Pull), not a pair of channel operations between goroutines. The
// result is a cooperatively-scheduled M:N runtime over simulated cores
// whose entire execution is reproducible from a seed.
//
// The API mirrors the constructs of the paper's Section 3: channels are
// first-class values (and can themselves be sent through channels), send
// can be blocking (rendezvous) or non-blocking (buffered), `Choose`
// selects over send and receive options, and `Spawn` is the paper's
// `start { foo(); }`.
package core

import (
	"fmt"
	"iter"
	"sort"
	"strconv"
	"strings"

	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/sim/fifo"
)

// ChooseImpl selects how blocked Choose operations wait; the paper (§5)
// flags "implementing choice effectively" as a challenge, and experiment
// E11 compares these strategies.
type ChooseImpl int

const (
	// ChooseWaiters registers a waiter on every channel in the choice;
	// the first channel to become ready resolves the choice directly.
	ChooseWaiters ChooseImpl = iota
	// ChoosePoll re-polls all channels every pollInterval cycles,
	// charging poll cost each round. Simpler hardware, wasted cycles.
	ChoosePoll
)

// Per-operation base costs (cycles).
const (
	chooseSetup  = 12  // fixed cost to evaluate a choice
	chooseCase   = 6   // additional cost per case
	pollCost     = 10  // cost of one readiness poll (Try*, ChoosePoll)
	pollInterval = 200 // cycles between ChoosePoll re-polls
	copyShift    = 2   // copy cost: bytes >> copyShift cycles (~4 bytes/cycle memcpy)
	defaultBytes = 64  // assumed payload size when not measurable
)

// Config holds runtime policy knobs.
type Config struct {
	// Strict enforces the shared-nothing discipline of Erlang: every
	// message payload is deep-copied and the copy cost is charged to the
	// sender ("This buys scalability at the cost of some memory
	// bandwidth overhead", §3).
	Strict bool

	// Choose implementation strategy.
	Choose ChooseImpl

	Seed uint64

	// Sched places threads on cores; nil means round-robin.
	Sched Scheduler

	// Tracer, when non-nil, receives run segments, message deliveries
	// and exits for timeline export.
	Tracer Tracer
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Tracer observes runtime activity for timeline export (implemented by
// internal/trace). All methods are invoked from the engine goroutine.
type Tracer interface {
	// RunSegment reports that thread tid occupied coreID over [start, end).
	RunSegment(tid int, name string, coreID int, start, end sim.Time)
	// Message reports a delivery on channel ch landing at a core.
	Message(ch string, fromCore, toCore int, at sim.Time)
	// Exit reports a thread's death.
	Exit(tid int, name string, at sim.Time, abnormal bool)
}

// PlaceHint carries placement advice to the scheduler at spawn time.
type PlaceHint struct {
	Core int     // explicit core, or -1
	Near *Thread // prefer the core neighbourhood of this thread, or nil
}

// Scheduler decides thread placement and (optionally) work stealing.
// Implementations live in internal/sched; core only defines the contract.
type Scheduler interface {
	// Place returns the core for a newly spawned thread.
	Place(rt *Runtime, hint PlaceHint) int
	// Steal is consulted when a core goes idle with an empty run queue.
	// It may return a thread popped from another core's queue (use
	// rt.StealFrom), or nil to stay idle.
	Steal(rt *Runtime, idleCore int) *Thread
}

// roundRobin is the fallback scheduler.
type roundRobin struct{ next int }

func (s *roundRobin) Place(rt *Runtime, hint PlaceHint) int {
	if hint.Core >= 0 {
		return hint.Core
	}
	if hint.Near != nil {
		return hint.Near.core
	}
	c := s.next % rt.NumCores()
	s.next++
	return c
}

func (s *roundRobin) Steal(rt *Runtime, idleCore int) *Thread { return nil }

// Stats is a snapshot of runtime-wide counters.
type Stats struct {
	Spawns      uint64
	Exits       uint64
	Sends       uint64
	Recvs       uint64
	BytesSent   uint64
	BytesCopied uint64
	Switches    uint64
	Rendezvous  uint64
	Chooses     uint64
	ChoosePolls uint64
	Kills       uint64
}

// Runtime ties the machine, the engine and the thread/channel world
// together. Create one per simulated boot.
type Runtime struct {
	M   *machine.Machine
	Eng *sim.Engine
	Cfg Config

	rng    *sim.RNG
	sched  Scheduler
	cores  []*coreState
	nextID int
	nextCh int

	// idleStack holds the cores that went idle with nothing stealable,
	// the most recently idled on top; idleGen marks, during a compaction,
	// which cores' latest entry is already kept (see pushIdle).
	idleStack []int
	idleGen   uint64

	threads map[int]*Thread
	stats   Stats

	// workers holds every worker the runtime started; idle, those whose
	// last thread exited with no step pending (see worker).
	workers []*worker
	idle    sim.FreeList[worker]

	// inject and land carry InjectSend values and buffered sends to
	// their channels through recycled engine events; waiters recycles
	// the wait records of this runtime's threads and of injected values
	// that found no room, and waitArrays the arrays of its channels'
	// wait queues, which are empty most of the time.
	inject     *sim.Relay[injection]
	land       *sim.Relay[landing]
	waiters    sim.FreeList[waiter]
	waitArrays fifo.Pool[waitRef]

	// labels is the chunk that Label writes names into (see Label).
	labels strings.Builder
}

type coreState struct {
	id       int
	cur      *Thread // thread currently owning the core (running or mid-op)
	runq     fifo.Queue[*Thread]
	lastTID  int    // last thread that ran; used to charge context switches
	idle     bool   // parked with empty queue, waiting for a kick
	assigned int    // live threads placed on this core
	keptGen  uint64 // rt.idleGen of the compaction that kept this core's entry
}

// NewRuntime builds a runtime over machine m.
func NewRuntime(m *machine.Machine, cfg Config) *Runtime {
	cfg.fill()
	rt := &Runtime{
		M:       m,
		Eng:     m.Eng,
		Cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		threads: make(map[int]*Thread),
	}
	rt.inject = sim.NewRelay(rt.Eng, func(in injection) { rt.injectNow(in.c, in.v, in.from) })
	rt.land = sim.NewRelay(rt.Eng, rt.landSend)
	rt.sched = cfg.Sched
	if rt.sched == nil {
		rt.sched = &roundRobin{}
	}
	rt.cores = make([]*coreState, m.NumCores())
	rt.idleStack = make([]int, 0, 2*m.NumCores())
	for i := range rt.cores {
		rt.cores[i] = &coreState{id: i, lastTID: -1, idle: true}
	}
	// Every core starts idle and kickable (stack pops last-first, so low
	// cores are kicked first).
	for i := m.NumCores() - 1; i >= 0; i-- {
		rt.idleStack = append(rt.idleStack, i)
	}
	return rt
}

// NumCores returns the machine's core count.
func (rt *Runtime) NumCores() int { return rt.M.NumCores() }

// Stats returns a snapshot of runtime counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// labelChunk is the size of the chunks Label writes names into.
const labelChunk = 4 << 10

// Label formats a per-connection or per-request name such as
// "conn.%d.recv": each %d in format takes the next id, in decimal. It is
// fmt.Sprintf for that one verb, but a name is no object of its own: its
// text goes on the end of the runtime's current chunk, a strings.Builder
// of 4 KB, and the name is a substring of it. A chunk is only ever
// appended to, so a name never changes while anything holds it, and a
// full chunk is freed once no name in it is held.
func (rt *Runtime) Label(format string, ids ...int) string {
	var buf [64]byte
	b := buf[:0]
	for len(ids) > 0 {
		i := strings.Index(format, "%d")
		if i < 0 {
			break
		}
		b = strconv.AppendInt(append(b, format[:i]...), int64(ids[0]), 10)
		format, ids = format[i+2:], ids[1:]
	}
	b = append(b, format...)
	if rt.labels.Cap()-rt.labels.Len() < len(b) {
		rt.labels.Reset()
		rt.labels.Grow(max(labelChunk, len(b)))
	}
	start := rt.labels.Len()
	rt.labels.Write(b)
	return rt.labels.String()[start:]
}

// CoreLoad returns the run-queue length of core i (plus one if a thread
// currently owns the core). Schedulers use it to find stealable backlogs.
func (rt *Runtime) CoreLoad(i int) int {
	cs := rt.cores[i]
	n := cs.runq.Len()
	if cs.cur != nil {
		n++
	}
	return n
}

// CoreAssigned returns how many live threads are placed on core i
// (running, ready or blocked). Placement policies balance on this, since
// blocked threads will wake on their core again.
func (rt *Runtime) CoreAssigned(i int) int { return rt.cores[i].assigned }

// StealFrom pops the newest runnable thread from victim's run queue and
// retargets it to thief. It returns nil if nothing is stealable.
func (rt *Runtime) StealFrom(victim, thief int) *Thread {
	cs := rt.cores[victim]
	for cs.runq.Len() > 0 {
		t := cs.runq.PopBack()
		if t.state == tDead {
			continue
		}
		cs.assigned--
		rt.cores[thief].assigned++
		t.core = thief
		return t
	}
	return nil
}

// Boot spawns a thread from outside the simulation (before or between
// runs). Inside a thread, use Thread.Spawn.
func (rt *Runtime) Boot(name string, fn func(*Thread), opts ...SpawnOpt) *Thread {
	req := spawnReq{name: name, fn: fn, hint: PlaceHint{Core: -1}}
	for _, o := range opts {
		o(&req)
	}
	t := rt.newThread(&req)
	rt.Eng.At(rt.Eng.Now(), func() { rt.makeReady(t) })
	return t
}

// Run drives the simulation until no events remain (all threads blocked
// or dead).
func (rt *Runtime) Run() { rt.Eng.Run() }

// RunFor drives the simulation for d more cycles of virtual time.
func (rt *Runtime) RunFor(d sim.Time) { rt.Eng.RunUntil(rt.Eng.Now() + d) }

// Blocked returns the names of threads that are neither dead nor runnable,
// sorted. After Run() drains the event queue, a non-empty result means
// those threads can never make progress (deadlock or intentional servers).
func (rt *Runtime) Blocked() []string {
	var out []string
	for _, t := range rt.threads {
		if t.state == tBlocked {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}

// Alive returns the number of threads not yet dead.
func (rt *Runtime) Alive() int {
	n := 0
	for _, t := range rt.threads {
		if t.state != tDead {
			n++
		}
	}
	return n
}

// Shutdown kills every remaining thread and stops every worker, so
// every goroutine the runtime started exits. Call at the end of a
// simulation to avoid leaking parked goroutines. That includes a worker
// still held by a dead thread's pending step (see Thread.letGo): the
// step may fire yet, as the engine runs on, but it resumes no thread,
// and it no longer puts its stopped worker on the idle list.
func (rt *Runtime) Shutdown() {
	ids := make([]int, 0, len(rt.threads))
	for id := range rt.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if t, ok := rt.threads[id]; ok && t.state != tDead {
			rt.killThread(t, ErrKilled)
		}
	}
	for _, w := range rt.workers {
		if w.t != nil {
			w.t.w = nil // held by a dead thread's pending step
		}
		w.stop()
	}
	rt.workers, rt.idle = nil, sim.FreeList[worker]{}
}

func (rt *Runtime) newThread(req *spawnReq) *Thread {
	t := &Thread{rt: rt, id: rt.nextID, name: req.name, fn: req.fn, arg: req.arg}
	t.waits = t.waitBuf[:0]
	rt.nextID++
	t.core = rt.sched.Place(rt, req.hint)
	if t.core < 0 || t.core >= rt.NumCores() {
		panic(fmt.Sprintf("core: scheduler placed %q on invalid core %d", t.name, t.core))
	}
	rt.threads[t.id] = t
	rt.cores[t.core].assigned++
	rt.stats.Spawns++
	t.w = rt.takeWorker()
	t.w.t = t
	return t
}

// worker is a thread coroutine. It runs the threads handed to it one
// after another, and control passes between it and the engine goroutine
// by coroutine switches: the engine's next resumes it with the answer to
// its last op in in, and the running thread's yield posts its next op
// and suspends it. Workers outlive their threads, because iter.Pull
// starts a goroutine: a churn of short-lived threads reuses a handful of
// them, and the host's allocation count stays independent of which Go
// scheduler P a thread happened to exit on. For the same reason a
// thread's steps fire through its worker's step, bound once per worker
// rather than once per thread.
type worker struct {
	t     *Thread  // the thread it runs, nil while idle
	in    opResult // the engine's answer to the op last yielded
	step  func()   // w.runStep: the engine callback for t's pending step
	yield func(op) bool
	next  func() (op, bool)
	stop  func()
}

// takeWorker returns an idle worker, starting one when none is idle.
func (rt *Runtime) takeWorker() *worker {
	w := rt.idle.Get()
	if w.step == nil {
		w.step = w.runStep
		w.next, w.stop = iter.Pull(w.loop)
		rt.workers = append(rt.workers, w)
	}
	return w
}

// loop is the coroutine body: it runs each thread handed to it and
// yields its exit op only once run has returned, so that while the
// worker sits idle no frame of the dead thread stays reachable. It ends
// when Shutdown stops the idle worker.
func (w *worker) loop(yield func(op) bool) {
	w.yield = yield
	for yield(op{kind: opExit, exit: w.t.run(w.take())}) {
	}
}

// take returns the engine's latest answer and clears it, so the worker
// keeps no message alive once its thread has read it.
func (w *worker) take() opResult {
	r := w.in
	w.in = opResult{}
	return r
}

// run runs t's function from its first resumption r and returns why it
// ended: a normal return, Exit, Fail, a kill's poison or a genuine panic.
func (t *Thread) run(r opResult) (reason error) {
	defer func() { reason = finish(recover()) }()
	if r.poison != nil {
		panic(r.poison)
	}
	t.fn(t)
	return nil
}

// makeReady queues t on its core and kicks the dispatcher. If the core is
// already busy with a backlog, an idle core (if any) gets a chance to
// steal.
func (rt *Runtime) makeReady(t *Thread) {
	if t.state == tDead {
		return
	}
	t.state = tReady
	cs := rt.cores[t.core]
	cs.runq.Push(t)
	rt.dispatch(cs)
	if cs.cur != nil && cs.runq.Len() > 0 {
		rt.kickIdleCore()
	}
}

// pushIdle marks cs idle and puts it on top of the idle stack. A core
// that dispatch wakes directly leaves its entry behind, so the stack would
// grow with simulated time; once it holds two entries per core, pushIdle
// drops in place every entry a kick would skip: that of a core no longer
// idle and any but the latest of an idle core, which lies below the latest
// and is reached only after a kick has taken that core. What is left is one
// entry per idle core in the same order, so every kick finds the same core,
// and the stack never outgrows its first array.
func (rt *Runtime) pushIdle(cs *coreState) {
	cs.idle = true
	rt.idleStack = append(rt.idleStack, cs.id)
	if len(rt.idleStack) < 2*len(rt.cores) {
		return
	}
	rt.idleGen++
	w := len(rt.idleStack)
	for r := w - 1; r >= 0; r-- {
		c := rt.cores[rt.idleStack[r]]
		if c.idle && c.keptGen != rt.idleGen {
			c.keptGen = rt.idleGen
			w--
			rt.idleStack[w] = c.id
		}
	}
	rt.idleStack = rt.idleStack[:copy(rt.idleStack, rt.idleStack[w:])]
}

// kickIdleCore wakes one idle core so its scheduler can attempt a steal.
func (rt *Runtime) kickIdleCore() {
	for len(rt.idleStack) > 0 {
		id := rt.idleStack[len(rt.idleStack)-1]
		rt.idleStack = rt.idleStack[:len(rt.idleStack)-1]
		cs := rt.cores[id]
		if !cs.idle {
			continue // stale entry
		}
		cs.idle = false
		rt.dispatch(cs)
		return
	}
}

// dispatch gives the core to the next runnable thread, charging a context
// switch when the thread differs from the last one that ran there.
func (rt *Runtime) dispatch(cs *coreState) {
	if cs.cur != nil {
		return
	}
	var t *Thread
	for cs.runq.Len() > 0 {
		t = cs.runq.Pop()
		if t.state != tDead {
			break
		}
		t = nil
	}
	if t == nil {
		if st := rt.sched.Steal(rt, cs.id); st != nil {
			t = st
		} else {
			if !cs.idle {
				rt.pushIdle(cs)
			}
			return
		}
	}
	cs.idle = false
	cs.cur = t
	t.segStart = rt.Eng.Now()
	t.state = tRunning
	var switchCost uint64
	if cs.lastTID != t.id {
		switchCost = rt.M.P.CtxSwitch
		rt.stats.Switches++
	}
	cs.lastTID = t.id
	_, end := rt.M.Core(cs.id).Reserve(rt.Eng.Now(), switchCost)
	res := t.pending
	t.pending = opResult{}
	if end == rt.Eng.Now() {
		rt.resumeThread(t, res)
		return
	}
	rt.resumeAt(t, end, res)
}

// releaseCore detaches t from its core (if it owns it) and redistributes.
func (rt *Runtime) releaseCore(t *Thread) {
	cs := rt.cores[t.core]
	if cs.cur == t {
		if rt.Cfg.Tracer != nil {
			rt.Cfg.Tracer.RunSegment(t.id, t.name, cs.id, t.segStart, rt.Eng.Now())
		}
		cs.cur = nil
		rt.dispatch(cs)
	}
}

// resumeThread switches to t's coroutine with res, takes back its next
// operation, and processes it. This is the only place user code runs.
func (rt *Runtime) resumeThread(t *Thread, res opResult) {
	if t.state == tDead {
		panic("core: resuming dead thread " + t.name)
	}
	t.state = tRunning
	t.w.in = res
	o, _ := t.w.next()
	rt.handleOp(t, o)
}

// handleOp executes one runtime operation on behalf of t at the current
// virtual time. t owns its core when handleOp is entered (except opExit
// reached via killThread).
func (rt *Runtime) handleOp(t *Thread, o op) {
	now := rt.Eng.Now()
	switch o.kind {
	case opCompute:
		_, end := rt.M.Core(t.core).Reserve(now, o.cycles)
		t.wake = rt.armStep(t, stepCompute, end)

	case opSleep:
		t.state = tBlocked
		rt.releaseCore(t)
		t.wake = rt.wakeAt(t, now+o.cycles, opResult{})

	case opYield:
		t.pending = opResult{}
		rt.releaseCore(t)
		rt.makeReady(t)

	case opSpawn:
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.SpawnCost)
		child := rt.newThread(&t.spawnReq)
		t.spawnReq = spawnReq{}
		rt.armStep(t, stepSpawn, end)
		t.stepPeer = child

	case opSend:
		rt.opSend(t, o)

	case opRecv:
		rt.opRecv(t, o)

	case opChoose:
		rt.opChoose(t, o)

	case opClose:
		_, end := rt.M.Core(t.core).Reserve(now, pollCost)
		rt.armStep(t, stepClose, end)
		t.stepCh = o.ch

	case opKill:
		_, end := rt.M.Core(t.core).Reserve(now, 30)
		rt.armStep(t, stepKill, end)
		t.stepPeer = o.victim

	case opPark:
		if t.permit {
			t.permit = false
			rt.resumeInPlace(t, opResult{})
			return
		}
		t.parked = true
		t.state = tBlocked
		rt.releaseCore(t)

	case opUnpark:
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.WakeCost)
		rt.armStep(t, stepUnpark, end)
		t.stepPeer = o.victim

	case opExit:
		rt.threadExit(t, o.exit)

	default:
		panic(fmt.Sprintf("core: unknown op kind %d from %q", o.kind, t.name))
	}
}

// computeDone completes a Compute once its cycles have elapsed.
func (rt *Runtime) computeDone(t *Thread) {
	// Preempt at the op boundary if others are waiting for this core:
	// without this, a compute loop starves its run queue.
	cs := rt.cores[t.core]
	if cs.cur == t && cs.runq.Len() > 0 {
		t.pending = opResult{}
		cs.cur = nil
		rt.makeReady(t)
		return
	}
	rt.resumeThread(t, opResult{})
}

// unpark wakes v from Park, or banks a permit if it is not parked.
func (rt *Runtime) unpark(v *Thread) {
	if v.state == tDead {
		return
	}
	if v.parked {
		v.parked = false
		rt.wakeWith(v, opResult{})
	} else {
		v.permit = true
	}
}

// wakeWith makes a blocked thread runnable with an op result to deliver.
// A thread waits on at most one operation, so any wake clears its wait
// registrations.
func (rt *Runtime) wakeWith(t *Thread, res opResult) {
	if t.state == tDead {
		return
	}
	t.cancelWaits()
	t.pending = res
	rt.makeReady(t)
}

// resumeInPlace continues a thread that still owns its core at the current
// time (e.g. a send that completed without blocking).
func (rt *Runtime) resumeInPlace(t *Thread, res opResult) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	rt.resumeThread(t, res)
}
