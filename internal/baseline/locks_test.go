package baseline

import (
	"testing"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 7})
	t.Cleanup(rt.Shutdown)
	return rt
}

// exerciseMutex runs n contending threads through a lock and fails the
// test if two threads are ever inside the critical section at once.
func exerciseMutex(t *testing.T, rt *core.Runtime, l Lock, n, rounds int) sim.Time {
	t.Helper()
	inCS := 0
	done := rt.NewChan("done", n)
	for i := 0; i < n; i++ {
		rt.Boot("worker", func(th *core.Thread) {
			for r := 0; r < rounds; r++ {
				l.Acquire(th)
				inCS++
				if inCS != 1 {
					t.Errorf("mutual exclusion violated: %d threads in CS", inCS)
				}
				th.Compute(100)
				inCS--
				l.Release(th)
				th.Compute(50)
			}
			done.Send(th, 1)
		}, core.OnCore(i%rt.NumCores()))
	}
	rt.Boot("waiter", func(th *core.Thread) {
		for i := 0; i < n; i++ {
			done.Recv(th)
		}
	})
	rt.Run()
	return rt.Eng.Now()
}

func TestTicketLockMutualExclusion(t *testing.T) {
	rt := newRT(t, 8)
	exerciseMutex(t, rt, NewTicketLock(rt), 8, 20)
}

func TestMCSLockMutualExclusion(t *testing.T) {
	rt := newRT(t, 8)
	exerciseMutex(t, rt, NewMCSLock(rt), 8, 20)
}

func TestTicketLockFIFO(t *testing.T) {
	rt := newRT(t, 4)
	l := NewTicketLock(rt)
	var order []int
	rt.Boot("holder", func(th *core.Thread) {
		l.Acquire(th)
		th.Sleep(10000) // let the others queue in a known order
		l.Release(th)
	})
	for i := 0; i < 3; i++ {
		i := i
		rt.Boot("w", func(th *core.Thread) {
			th.Sleep(uint64(100 * (i + 1))) // deterministic arrival order
			l.Acquire(th)
			order = append(order, i)
			l.Release(th)
		})
	}
	rt.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("ticket lock not FIFO: %v", order)
	}
}

func TestUncontendedLockIsCheap(t *testing.T) {
	rt := newRT(t, 1)
	l := NewTicketLock(rt)
	var elapsed sim.Time
	rt.Boot("solo", func(th *core.Thread) {
		start := th.Now()
		for i := 0; i < 10; i++ {
			l.Acquire(th)
			l.Release(th)
		}
		elapsed = th.Now() - start
	})
	rt.Run()
	// 10 acquire/release pairs, each a handful of L1 hits: well under
	// 10k cycles.
	if elapsed > 10000 {
		t.Fatalf("uncontended lock too expensive: %d cycles", elapsed)
	}
}

// The central scaling claim: ticket-lock handoff cost grows with the
// number of waiters (invalidation storms); MCS handoff does not.
func TestContentionGrowsTicketNotMCS(t *testing.T) {
	perOp := func(mk func(rt *core.Runtime) Lock, n int) float64 {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.DefaultParams(64))
		rt := core.NewRuntime(m, core.Config{Seed: 7})
		defer rt.Shutdown()
		l := mk(rt)
		const rounds = 30
		done := rt.NewChan("done", n)
		for i := 0; i < n; i++ {
			rt.Boot("w", func(th *core.Thread) {
				for r := 0; r < rounds; r++ {
					l.Acquire(th)
					th.Compute(100)
					l.Release(th)
				}
				done.Send(th, 1)
			}, core.OnCore(i%rt.NumCores()))
		}
		rt.Boot("join", func(th *core.Thread) {
			for i := 0; i < n; i++ {
				done.Recv(th)
			}
		})
		rt.Run()
		return float64(eng.Now()) / float64(n*rounds)
	}

	tick2 := perOp(func(rt *core.Runtime) Lock { return NewTicketLock(rt) }, 2)
	tick32 := perOp(func(rt *core.Runtime) Lock { return NewTicketLock(rt) }, 32)
	mcs2 := perOp(func(rt *core.Runtime) Lock { return NewMCSLock(rt) }, 2)
	mcs32 := perOp(func(rt *core.Runtime) Lock { return NewMCSLock(rt) }, 32)

	tickGrowth := tick32 / tick2
	mcsGrowth := mcs32 / mcs2
	if tickGrowth < 1.3 {
		t.Fatalf("ticket lock per-op cost did not grow with contention: 2=%v 32=%v", tick2, tick32)
	}
	if mcsGrowth > tickGrowth {
		t.Fatalf("MCS should degrade less than ticket: mcs %vx vs ticket %vx", mcsGrowth, tickGrowth)
	}
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	rt := newRT(t, 2)
	l := NewTicketLock(rt)
	var thread *core.Thread
	rt.Boot("bad", func(th *core.Thread) {
		thread = th
		l.Release(th)
	})
	rt.Run()
	if thread.ExitReason() == nil {
		t.Fatal("release-without-hold did not fault the thread")
	}
}

func TestSharedCounter(t *testing.T) {
	rt := newRT(t, 8)
	c := NewSharedCounter(rt)
	done := rt.NewChan("done", 8)
	for i := 0; i < 8; i++ {
		rt.Boot("inc", func(th *core.Thread) {
			for j := 0; j < 10; j++ {
				c.Inc(th)
			}
			done.Send(th, 1)
		}, core.OnCore(i))
	}
	rt.Boot("join", func(th *core.Thread) {
		for i := 0; i < 8; i++ {
			done.Recv(th)
		}
		if got := c.Value; got != 80 {
			t.Errorf("counter = %d, want 80", got)
		}
	})
	rt.Run()
}

func TestTrapCosts(t *testing.T) {
	rt := newRT(t, 1)
	tr := NewTrap(rt)
	var elapsed sim.Time
	rt.Boot("sys", func(th *core.Thread) {
		start := th.Now()
		tr.Enter(th)
		tr.Exit(th)
		elapsed = th.Now() - start
	})
	rt.Run()
	want := rt.M.P.TrapDirect + rt.M.P.TrapPollution
	if elapsed < want {
		t.Fatalf("trap pair cost %d, want >= %d", elapsed, want)
	}
	if tr.Count != 1 {
		t.Fatalf("trap count = %d", tr.Count)
	}
}

func TestSharedKernelModes(t *testing.T) {
	for _, mode := range []LockMode{BigLock, FineGrained} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRT(t, 8)
			k := NewSharedKernel(rt, mode, 64, 500)
			done := rt.NewChan("done", 8)
			for i := 0; i < 8; i++ {
				i := i
				rt.Boot("app", func(th *core.Thread) {
					for j := 0; j < 10; j++ {
						k.Syscall(th, i*13+j, 50)
					}
					done.Send(th, 1)
				}, core.OnCore(i))
			}
			rt.Boot("join", func(th *core.Thread) {
				for i := 0; i < 8; i++ {
					done.Recv(th)
				}
			})
			rt.Run()
			if k.Ops != 80 {
				t.Fatalf("ops = %d, want 80", k.Ops)
			}
			if k.Trap.Count != 80 {
				t.Fatalf("traps = %d, want 80", k.Trap.Count)
			}
		})
	}
}

// Big-lock kernels must be slower than fine-grained ones under
// multi-object contention — the first rung of the paper's scaling ladder.
func TestBigLockSlowerThanFineGrained(t *testing.T) {
	run := func(mode LockMode) sim.Time {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.DefaultParams(16))
		rt := core.NewRuntime(m, core.Config{Seed: 7})
		defer rt.Shutdown()
		k := NewSharedKernel(rt, mode, 256, 500)
		done := rt.NewChan("done", 16)
		for i := 0; i < 16; i++ {
			i := i
			rt.Boot("app", func(th *core.Thread) {
				for j := 0; j < 20; j++ {
					k.Syscall(th, i*31+j*7, 0)
				}
				done.Send(th, 1)
			}, core.OnCore(i))
		}
		rt.Boot("join", func(th *core.Thread) {
			for i := 0; i < 16; i++ {
				done.Recv(th)
			}
		})
		rt.Run()
		return eng.Now()
	}
	big := run(BigLock)
	fine := run(FineGrained)
	if big <= fine {
		t.Fatalf("big lock (%d) should be slower than fine-grained (%d)", big, fine)
	}
}
