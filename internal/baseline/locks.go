// Package baseline implements the foil the paper argues against:
// conventional shared-memory synchronisation (spin-queue locks whose cost
// is driven by cache-coherence traffic) and trap-based system calls with
// mode-switch and cache-pollution overheads. Both run on the same
// simulated machine as the channel runtime, so experiments compare
// programming models, not hardware.
package baseline

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/machine"
)

// Lock is the common interface over the lock implementations.
type Lock interface {
	Acquire(t *core.Thread)
	Release(t *core.Thread)
}

// TicketLock is a FIFO queued lock in which every waiter spins on the
// same cache line. Each release therefore invalidates every spinner —
// the O(waiters) handoff storm that makes "locks and shared memory" stop
// scaling (§1). Waiters are parked rather than burning cycles, but they
// pay full coherence costs; see DESIGN.md.
type TicketLock struct {
	rt      *core.Runtime
	line    *machine.Line
	holder  *core.Thread
	waiters []*core.Thread
}

// NewTicketLock allocates a ticket lock on a fresh cache line.
func NewTicketLock(rt *core.Runtime) *TicketLock {
	return &TicketLock{rt: rt, line: rt.M.NewLine()}
}

// Acquire blocks until the lock is held by t.
func (l *TicketLock) Acquire(t *core.Thread) {
	// Fetch-and-increment of the ticket counter: exclusive access.
	t.Compute(l.line.AcquireExclusive(t.Core()))
	if l.holder == nil {
		l.holder = t
		return
	}
	// Join the spinner set: one shared read, then local spinning (parked
	// here; the coherence cost is what matters).
	l.waiters = append(l.waiters, t)
	t.Compute(l.line.AcquireShared(t.Core()))
	t.Park()
	// Woken as the new holder (Release assigned it); re-read the line.
	t.Compute(l.line.AcquireShared(t.Core()))
}

// Release hands the lock to the oldest waiter, paying the invalidation
// storm: the releasing store invalidates every spinning sharer.
func (l *TicketLock) Release(t *core.Thread) {
	if l.holder != t {
		panic(fmt.Sprintf("baseline: %s releasing ticket lock it does not hold", t.Name()))
	}
	// Every queued waiter is spinning on this line and has re-fetched it
	// since the last invalidation; the releasing store pays to invalidate
	// all of them.
	for _, w := range l.waiters {
		l.line.AddSharer(w.Core())
	}
	t.Compute(l.line.AcquireExclusive(t.Core()))
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.holder = next
		t.Unpark(next)
		return
	}
	l.holder = nil
}

// mcsNode is one waiter's private spin line.
type mcsNode struct {
	t    *core.Thread
	line *machine.Line
}

// MCSLock is a queue lock where each waiter spins on its own line, so a
// handoff touches exactly one remote line regardless of queue length.
// This is the "great effort" end of lock engineering (à la Solaris):
// it scales much further than the ticket lock but still serialises.
type MCSLock struct {
	rt      *core.Runtime
	tail    *machine.Line // the swapped tail pointer
	holder  *core.Thread
	waiters []*mcsNode
}

// NewMCSLock allocates an MCS lock.
func NewMCSLock(rt *core.Runtime) *MCSLock {
	return &MCSLock{rt: rt, tail: rt.M.NewLine()}
}

// Acquire blocks until the lock is held by t.
func (l *MCSLock) Acquire(t *core.Thread) {
	// Swap on the tail pointer.
	t.Compute(l.tail.AcquireExclusive(t.Core()))
	if l.holder == nil {
		l.holder = t
		return
	}
	node := &mcsNode{t: t, line: l.rt.M.NewLine()}
	l.waiters = append(l.waiters, node)
	t.Compute(node.line.AcquireShared(t.Core()))
	t.Park()
	// Our private line was written by the releaser; one transfer.
	t.Compute(node.line.AcquireShared(t.Core()))
}

// Release writes the successor's private line only: O(1) handoff.
func (l *MCSLock) Release(t *core.Thread) {
	if l.holder != t {
		panic(fmt.Sprintf("baseline: %s releasing MCS lock it does not hold", t.Name()))
	}
	if l.handoff(t) {
		return
	}
	t.Compute(l.tail.AcquireExclusive(t.Core()))
	// The tail update yielded: a waiter may have enqueued meanwhile.
	// Re-check, or its wakeup is lost forever.
	if l.handoff(t) {
		return
	}
	l.holder = nil
}

// handoff passes ownership to the oldest waiter if one exists.
func (l *MCSLock) handoff(t *core.Thread) bool {
	if len(l.waiters) == 0 {
		return false
	}
	next := l.waiters[0]
	l.waiters = l.waiters[1:]
	t.Compute(next.line.AcquireExclusive(t.Core()))
	l.holder = next.t
	t.Unpark(next.t)
	return true
}

// SharedCounter is a shared-memory statistics counter: every increment is
// an exclusive line acquisition. Kernels love these; they are quiet
// scalability poison.
type SharedCounter struct {
	line  *machine.Line
	Value uint64
}

// NewSharedCounter allocates a counter on its own line.
func NewSharedCounter(rt *core.Runtime) *SharedCounter {
	return &SharedCounter{line: rt.M.NewLine()}
}

// Inc increments the counter from thread t, paying coherence cost.
func (c *SharedCounter) Inc(t *core.Thread) {
	t.Compute(c.line.AcquireExclusive(t.Core()))
	c.Value++
}
