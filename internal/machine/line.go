package machine

import "chanos/internal/sim"

// Line models one contended cache line at coherence-protocol granularity:
// which core owns it exclusively and how many cores share it read-only.
// The shared-memory baseline builds its locks, counters and object state
// on Lines so that synchronisation cost emerges from coherence traffic,
// exactly the mechanism the paper blames for "locks and shared memory
// does not scale".
//
// A line is a serial resource: coherence transactions on the same line
// queue behind each other (nextFree), so a hot line caps system-wide
// throughput no matter how many cores spin on it.
type Line struct {
	m        *Machine
	owner    int // core with exclusive ownership; -1 if none yet
	sharers  map[int]struct{}
	nextFree sim.Time // the line's directory is busy until here

	// Stats.
	Transfers     uint64
	Invalidations uint64
	WaitCycles    uint64
}

// NewLine allocates a line with no owner.
func (m *Machine) NewLine() *Line {
	return &Line{m: m, owner: -1, sharers: make(map[int]struct{})}
}

// serialize queues a transaction of the given duration on the line and
// returns the total cycles the requester waits (queue + transaction).
func (l *Line) serialize(cost uint64) uint64 {
	now := l.m.Eng.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + cost
	wait := (start - now) + cost
	l.WaitCycles += start - now
	return wait
}

// AcquireExclusive returns the cycle cost for core `by` to gain exclusive
// (write) ownership, and updates the line state: all sharers are
// invalidated and `by` becomes the sole owner. A core re-acquiring a line
// it already owns exclusively pays only an L1 hit. Remote acquisitions
// serialize on the line.
func (l *Line) AcquireExclusive(by int) uint64 {
	if l.owner == by && len(l.sharers) == 0 {
		return l.m.P.L1
	}
	inv := len(l.sharers)
	if _, ok := l.sharers[by]; ok {
		inv-- // no self-invalidation
	}
	cost := l.m.LineTransferCost(l.owner, by, inv)
	l.Transfers++
	l.Invalidations += uint64(inv)
	l.owner = by
	clear(l.sharers)
	return l.serialize(cost)
}

// AddSharer records that core `by` holds the line shared without charging
// anyone: spinners continuously re-fetch the line between invalidations,
// and their re-reads happen off the critical path. The next exclusive
// acquisition pays to invalidate them — that is the storm.
func (l *Line) AddSharer(by int) {
	if l.owner == by {
		return
	}
	l.sharers[by] = struct{}{}
}

// AcquireShared returns the cost for core `by` to read the line and adds
// it to the sharer set. Reading your own exclusive line is an L1 hit;
// reading someone else's dirty line costs a transfer (ownership degrades
// to shared, modelled as owner -1 plus both cores sharing).
func (l *Line) AcquireShared(by int) uint64 {
	if l.owner == by {
		return l.m.P.L1
	}
	if _, ok := l.sharers[by]; ok && l.owner == -1 {
		return l.m.P.L1
	}
	var cost uint64
	if l.owner >= 0 {
		cost = l.m.LineTransferCost(l.owner, by, 0)
		l.sharers[l.owner] = struct{}{}
		l.owner = -1
		l.Transfers++
		cost = l.serialize(cost)
	} else {
		cost = l.m.P.LLC
	}
	l.sharers[by] = struct{}{}
	return cost
}
