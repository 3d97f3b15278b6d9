package core

import (
	"testing"

	"chanos/internal/sim"
)

// stealRecorder places threads as the fallback scheduler does, never
// steals, and calls onIdle with every core that asks for a steal: a core
// asks just before it turns idle.
type stealRecorder struct {
	roundRobin
	onIdle func(core int)
}

func (s *stealRecorder) Steal(rt *Runtime, idleCore int) *Thread {
	s.onIdle(idleCore)
	return nil
}

// A core that a send wakes directly leaves its idle-stack entry behind.
// Ping-pong pairs on every core of a 64-core machine turn their cores idle
// and busy again more than 100k times, and the stack must stay within two
// entries per core all the while, without growing its array.
func TestIdleStackStaysBounded(t *testing.T) {
	const cores, rounds = 64, 1600
	sched := &stealRecorder{}
	rt := newRT(t, cores, Config{Sched: sched})
	idled := 0
	sched.onIdle = func(int) {
		idled++
		if n, c := len(rt.idleStack), cap(rt.idleStack); n > 2*cores || c > 2*cores {
			t.Fatalf("after %d idle turns the idle stack holds %d entries in an array of %d, want both <= %d", idled, n, c, 2*cores)
		}
	}
	for p := 0; p < cores/2; p++ {
		ping, pong := rt.NewChan("ping", 0), rt.NewChan("pong", 0)
		rt.Boot("a", func(th *Thread) {
			for i := 0; i < rounds; i++ {
				ping.Send(th, i)
				pong.Recv(th)
			}
		}, OnCore(2*p))
		rt.Boot("b", func(th *Thread) {
			for i := 0; i < rounds; i++ {
				v, _ := ping.Recv(th)
				pong.Send(th, v)
			}
		}, OnCore(2*p+1))
	}
	rt.Run()
	if rt.Alive() != 0 {
		t.Fatalf("%d threads still alive", rt.Alive())
	}
	if idled < 100_000 {
		t.Fatalf("cores turned idle %d times, want >= 100000", idled)
	}
	if n, c := len(rt.idleStack), cap(rt.idleStack); n > 2*cores || c > 2*cores {
		t.Fatalf("idle stack ends with %d entries in an array of %d, want both <= %d", n, c, 2*cores)
	}
}

// The bounded idle stack kicks the same core as the append-only stack it
// replaces. A seeded random drive turns cores idle (dispatch with nothing to
// run), wakes idle cores directly (what dispatch does when it hands an idle
// core a thread, leaving its entry behind) and kicks, and a reference model
// of the append-only stack, which pops entries until it finds an idle core,
// must pick the same core at every kick.
func TestIdleKickOrderMatchesUnboundedStack(t *testing.T) {
	for _, cores := range []int{1, 2, 8} {
		sched := &stealRecorder{}
		rt := newRT(t, cores, Config{Sched: sched})
		rng := sim.NewRNG(uint64(cores))
		stole := -1
		sched.onIdle = func(c int) { stole = c }

		// The model starts as NewRuntime does: every core idle, core 0 on top.
		idle := make([]bool, cores)
		var stack []int
		for c := cores - 1; c >= 0; c-- {
			idle[c] = true
			stack = append(stack, c)
		}
		kicks := 0
		for step := 0; step < 20_000; step++ {
			c := rng.Intn(cores)
			cs := rt.cores[c]
			if cs.idle != idle[c] {
				t.Fatalf("%d cores, step %d: core %d idle %v, model says %v", cores, step, c, cs.idle, idle[c])
			}
			switch {
			case rng.Intn(3) == 0: // kick
				want := -1
				for len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if idle[top] {
						want = top
						break
					}
				}
				stole = -1
				rt.kickIdleCore()
				if stole != want {
					t.Fatalf("%d cores, kick %d (step %d): runtime kicked core %d, append-only stack kicks %d", cores, kicks, step, stole, want)
				}
				kicks++
				if want >= 0 {
					// Nothing to steal: the kicked core goes idle again.
					stack = append(stack, want)
				}
			case idle[c]: // direct wake
				cs.idle = false
				idle[c] = false
			default: // the core's thread finished and nothing is runnable
				rt.dispatch(cs)
				idle[c] = true
				stack = append(stack, c)
			}
			if n := len(rt.idleStack); n > 2*cores {
				t.Fatalf("%d cores, step %d: idle stack holds %d entries", cores, step, n)
			}
		}
		if kicks < 5000 {
			t.Fatalf("%d cores: only %d kicks", cores, kicks)
		}
	}
}
