// Package sim provides the deterministic discrete-event simulation engine
// that underpins the chanOS reproduction: a virtual clock measured in CPU
// cycles, a stable-ordered event heap, and a seedable random number
// generator. Everything above this package (machine model, channel runtime,
// kernel, experiments) schedules work through a single Engine, so a whole
// 1024-core run is reproducible from one seed.
package sim

import (
	"fmt"
	"sort"
)

// Time is virtual time in CPU cycles since boot.
type Time = uint64

// Event is the engine's record of one scheduled callback. Events are
// ordered by (When, seq): two events at the same virtual time run in the
// order they were scheduled, which is what makes runs deterministic.
// The engine owns every record and recycles it once it fires or is
// canceled; callers hold a Timer instead.
type Event struct {
	When Time
	fn   func()
	seq  uint64
	gen  uint64 // bumped on every recycle; a Timer matches only its own
	idx  int    // heap index, -1 while the record is not queued
}

// Timer is a handle on one scheduled event. Records are reused, so a
// handle remembers the generation it was issued at: once its event has
// fired or been canceled the handle goes inert — Armed reports false and
// Cancel does nothing — even after the record carries a newer event.
// The zero Timer is inert.
type Timer struct {
	ev  *Event
	gen uint64
}

// Armed reports whether the event is still scheduled: neither fired
// nor canceled.
func (t Timer) Armed() bool { return t.ev != nil && t.ev.gen == t.gen && t.ev.idx >= 0 }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// by design exactly one goroutine (the "engine goroutine") drives it.
type Engine struct {
	now    Time
	seq    uint64
	pq     []*Event        // min-heap on (When, seq)
	free   FreeList[Event] // fired and canceled records, ready for reuse
	fired  uint64
	halted bool

	// stopAtFired, when non-zero, halts the run loop the moment `fired`
	// reaches it — BEFORE the next event pops, so the machine rests
	// exactly at the state after event N. stopReached latches when the
	// limit trips (it also suppresses RunUntil's final clock-force, so
	// Now() stays at the last event's time).
	stopAtFired uint64
	stopReached bool

	// triggers are callbacks armed on the fired-event axis (AtFired,
	// AfterEvent), kept sorted by (n, seq) from index thead on and
	// drained after each event. Draining advances thead; the slice
	// rewinds to its start whenever it empties, so its backing array is
	// reused.
	triggers []firedTrigger
	thead    int
}

// firedTrigger is one AtFired or AfterEvent arming: fn runs the moment
// Fired() reaches n, immediately after event n's own callback returns.
type firedTrigger struct {
	n   uint64
	seq uint64
	fn  func()
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. Every event
// counts: the count is the replay coordinate a core dump records, so
// observation never schedules an event — it reads the machine from the
// host between events, or from a trigger (AtFired, AfterEvent), which
// the count does not include.
func (e *Engine) Fired() uint64 { return e.fired }

// StopAtFired arms a halt just before event n+1: once Fired() reaches
// n, Step refuses to pop further events and Run/RunUntil return with
// the clock at event n's time. 0 disarms. This is the time-travel half
// of the dump contract — replaying a seed with
// StopAtFired(dump.EventCount) parks the machine in exactly the dumped
// state.
func (e *Engine) StopAtFired(n uint64) {
	e.stopAtFired = n
	e.stopReached = n > 0 && e.fired >= n
}

// StopReached reports whether an armed StopAtFired limit has tripped.
func (e *Engine) StopReached() bool { return e.stopReached }

// Pending returns the number of scheduled, uncanceled events.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a bug in callers.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	ev := e.free.Get()
	ev.When, ev.fn, ev.seq = t, fn, e.seq
	e.seq++
	ev.idx = len(e.pq)
	e.pq = append(e.pq, ev)
	e.up(ev.idx)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// release retires a record that has left the heap: the generation bump
// disarms every Timer issued for it before it goes back on the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.idx = -1
	ev.gen++
	e.free.Put(ev)
}

// AtFired schedules fn on the fired-event axis instead of the clock:
// it runs once Fired() reaches n, immediately after event n's own
// callback returns and before the next event pops. This is the chaos
// harness's event-count trigger — because it keys off the same
// coordinate StopAtFired halts on, a fault armed at event N lands at
// the identical instant in an original run and in a dump replay,
// whatever the wall-clock of event N turns out to be. Arming a trigger
// at or before the current count panics, like scheduling in the past.
// Triggers with equal n run in arming order.
func (e *Engine) AtFired(n uint64, fn func()) {
	if n <= e.fired {
		panic(fmt.Sprintf("sim: AtFired trigger at event %d in the past (fired %d)", n, e.fired))
	}
	e.trigger(n, fn)
}

// AfterEvent runs fn once the running event and every trigger already
// armed for it have returned, before the next event pops — the instant
// between events that a replay halted at this Fired() rests in. It is
// how engine-context code observes the machine: a fail-stop hook arms
// its dump capture here, and the capture adds no event. Call it from
// an event or a trigger.
func (e *Engine) AfterEvent(fn func()) { e.trigger(e.fired, fn) }

// trigger inserts fn at count n, after every trigger already armed at n.
func (e *Engine) trigger(n uint64, fn func()) {
	if fn == nil {
		panic("sim: nil trigger func")
	}
	tr := firedTrigger{n: n, seq: e.seq, fn: fn}
	e.seq++
	live := e.triggers[e.thead:]
	i := e.thead + sort.Search(len(live), func(i int) bool {
		t := live[i]
		return t.n > tr.n || (t.n == tr.n && t.seq > tr.seq)
	})
	e.triggers = append(e.triggers, firedTrigger{})
	copy(e.triggers[i+1:], e.triggers[i:])
	e.triggers[i] = tr
}

// Cancel removes a scheduled event. Canceling through a Timer whose
// event already fired or was canceled is a harmless no-op.
func (e *Engine) Cancel(t Timer) {
	if !t.Armed() {
		return
	}
	e.remove(t.ev.idx)
	e.release(t.ev)
}

// Step runs the single earliest event. It returns false if no events
// remain or an armed StopAtFired limit has been reached.
func (e *Engine) Step() bool {
	if e.stopAtFired > 0 && e.fired >= e.stopAtFired {
		// The machine rests exactly after event N: nothing more pops.
		e.stopReached = true
		e.halted = true
		return false
	}
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq[0]
	e.remove(0)
	if ev.When < e.now {
		panic("sim: event heap returned an event in the past")
	}
	e.now = ev.When
	fn := ev.fn
	// Recycle before the callback runs: it may schedule into the same
	// record, and every handle on the fired event must already be inert.
	e.release(ev)
	e.fired++
	fn()
	// Drain fired-count triggers: each may arm more (AfterEvent at this
	// count, AtFired above it), so re-check the head every iteration.
	for e.thead < len(e.triggers) && e.triggers[e.thead].n <= e.fired {
		tfn := e.triggers[e.thead].fn
		e.triggers[e.thead] = firedTrigger{}
		e.thead++
		if e.thead == len(e.triggers) {
			e.triggers, e.thead = e.triggers[:0], 0
		}
		tfn()
	}
	return true
}

// Run executes events until none remain or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t (even if the heap drained earlier or later events
// remain pending).
func (e *Engine) RunUntil(t Time) {
	e.halted = false
	for !e.halted && len(e.pq) > 0 && e.pq[0].When <= t {
		e.Step()
	}
	if e.now < t && !e.stopReached {
		// A tripped StopAtFired pins the clock to the last event's
		// time: replay must come to rest at the dumped instant,
		// not at the caller's slice boundary.
		e.now = t
	}
}

// Halt stops Run/RunUntil after the current event returns. Pending events
// stay queued, so the simulation can be resumed.
func (e *Engine) Halt() { e.halted = true }

// The event heap is a binary min-heap on (When, seq) over e.pq. seq is
// unique, so the order is total: any correct heap pops events in the
// same sequence.

func (e *Engine) less(i, j int) bool {
	a, b := e.pq[i], e.pq[j]
	if a.When != b.When {
		return a.When < b.When
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.pq[i], e.pq[j] = e.pq[j], e.pq[i]
	e.pq[i].idx = i
	e.pq[j].idx = j
}

// remove takes the element at i out of the heap.
func (e *Engine) remove(i int) {
	n := len(e.pq) - 1
	if i != n {
		e.swap(i, n)
	}
	e.pq[n] = nil
	e.pq = e.pq[:n]
	if i != n && !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		j = i
	}
}

// down sifts the element at i0 toward the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	n := len(e.pq)
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && e.less(r, j) {
			j = r
		}
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		i = j
	}
	return i > i0
}
