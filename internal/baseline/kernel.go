package baseline

import (
	"chanos/internal/core"
	"chanos/internal/machine"
)

// Trap models the mode-switch cost of conventional system calls: a direct
// crossing cost plus the indirect cache/TLB pollution the FlexSC paper
// measured ("This can be done without any mode transitions", §4 — this is
// the cost messages avoid).
type Trap struct {
	rt *core.Runtime
	// Direct and Pollution override the machine defaults when non-zero.
	Direct    uint64
	Pollution uint64
	Count     uint64
}

// NewTrap returns a trap model using the machine's calibrated costs.
func NewTrap(rt *core.Runtime) *Trap {
	return &Trap{rt: rt, Direct: rt.M.P.TrapDirect, Pollution: rt.M.P.TrapPollution}
}

// Enter charges the user→kernel crossing.
func (tr *Trap) Enter(t *core.Thread) {
	tr.Count++
	t.Compute(tr.Direct / 2)
}

// Exit charges the kernel→user crossing plus pollution: the cost the
// caller pays afterwards re-warming caches and TLBs.
func (tr *Trap) Exit(t *core.Thread) {
	t.Compute(tr.Direct/2 + tr.Pollution)
}

// LockMode selects the shared-memory kernel's locking discipline.
type LockMode int

const (
	// BigLock serialises the whole kernel behind one ticket lock
	// (early-SMP style).
	BigLock LockMode = iota
	// FineGrained uses one MCS lock per kernel object (the "great
	// effort" Solaris-style engineering of §1).
	FineGrained
)

// String returns the mode name.
func (m LockMode) String() string {
	switch m {
	case BigLock:
		return "biglock"
	case FineGrained:
		return "finegrained"
	default:
		return "unknown"
	}
}

// SharedKernel is the conventional macrokernel foil: system calls trap
// into kernel mode on the caller's own core, take locks on shared kernel
// objects, touch the object's state (whose cache lines bounce between
// the cores that use it — the cost a message kernel avoids by keeping
// state local to its service thread), do the work, and trap back out.
type SharedKernel struct {
	rt   *core.Runtime
	Trap *Trap
	mode LockMode

	big   Lock
	objs  []Lock
	lines []*machine.Line // per-object state lines

	// ServiceCycles is the computation per syscall once locks are held.
	ServiceCycles uint64
	// Ops counts completed syscalls.
	Ops uint64
}

// NewSharedKernel builds a shared-memory kernel with nObjects lockable
// kernel objects (inodes, proc entries, ...).
func NewSharedKernel(rt *core.Runtime, mode LockMode, nObjects int, serviceCycles uint64) *SharedKernel {
	k := &SharedKernel{
		rt:            rt,
		Trap:          NewTrap(rt),
		mode:          mode,
		ServiceCycles: serviceCycles,
	}
	if nObjects <= 0 {
		nObjects = 1
	}
	if mode == BigLock {
		k.big = NewTicketLock(rt)
	} else {
		k.objs = make([]Lock, nObjects)
		for i := range k.objs {
			k.objs[i] = NewMCSLock(rt)
		}
	}
	k.lines = make([]*machine.Line, nObjects)
	for i := range k.lines {
		k.lines[i] = rt.M.NewLine()
	}
	return k
}

// Syscall performs one system call from thread t against kernel object
// obj, with extra cycles of copy/argument work outside the lock.
func (k *SharedKernel) Syscall(t *core.Thread, obj int, extra uint64) {
	k.Trap.Enter(t)
	if extra > 0 {
		t.Compute(extra)
	}
	var l Lock
	if k.mode == BigLock {
		l = k.big
	} else {
		l = k.objs[obj%len(k.objs)]
	}
	l.Acquire(t)
	// Pull the object's state into this core's cache: on shared objects
	// this line bounces between every core that operates on the object.
	t.Compute(k.lines[obj%len(k.lines)].AcquireExclusive(t.Core()))
	t.Compute(k.ServiceCycles)
	l.Release(t)
	k.Trap.Exit(t)
	k.Ops++
}
