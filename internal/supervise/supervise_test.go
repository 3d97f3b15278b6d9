package supervise

import (
	"errors"
	"testing"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 43})
	t.Cleanup(rt.Shutdown)
	return rt
}

// crashNTimes returns a child body that crashes its first n incarnations
// (tracked via the counter pointer), then runs forever.
func crashNTimes(n *int, limit int, hang *core.Chan) func(*core.Thread) {
	return func(t *core.Thread) {
		if *n < limit {
			*n++
			t.Sleep(1000)
			t.Fail(errors.New("injected crash"))
		}
		hang.Recv(t) // healthy: serve forever
	}
}

func TestOneForOneRestartsOnlyCrashed(t *testing.T) {
	rt := newRT(t, 8)
	hang := rt.NewChan("hang", 0)
	crashes := 0
	var stableIncarnations int
	var sup *Supervisor
	rt.Boot("main", func(th *core.Thread) {
		specs := []ChildSpec{
			{Name: "crashy", Start: crashNTimes(&crashes, 3, hang)},
			{Name: "stable", Start: func(t *core.Thread) {
				stableIncarnations++
				hang.Recv(t)
			}},
		}
		sup = Spawn(th, "sup", Config{Strategy: OneForOne, MaxRestarts: 10}, specs)
		th.Sleep(100_000)
		sup.Stop(th)
	})
	rt.Run()
	if crashes != 3 {
		t.Fatalf("crashes = %d, want 3", crashes)
	}
	if sup.Restarts != 3 {
		t.Fatalf("restarts = %d, want 3", sup.Restarts)
	}
	if stableIncarnations != 1 {
		t.Fatalf("stable child started %d times, want 1 (one-for-one)", stableIncarnations)
	}
	if sup.GaveUp {
		t.Fatal("supervisor gave up unexpectedly")
	}
}

func TestOneForAllRestartsSiblings(t *testing.T) {
	rt := newRT(t, 8)
	hang := rt.NewChan("hang", 0)
	crashes := 0
	stableIncarnations := 0
	rt.Boot("main", func(th *core.Thread) {
		specs := []ChildSpec{
			{Name: "crashy", Start: crashNTimes(&crashes, 2, hang)},
			{Name: "stable", Start: func(t *core.Thread) {
				stableIncarnations++
				hang.Recv(t)
			}},
		}
		sup := Spawn(th, "sup", Config{Strategy: OneForAll, MaxRestarts: 10}, specs)
		th.Sleep(100_000)
		sup.Stop(th)
	})
	rt.Run()
	if stableIncarnations != 3 { // initial + 2 collateral restarts
		t.Fatalf("stable child started %d times, want 3 (one-for-all)", stableIncarnations)
	}
}

func TestRestForOneRestartsLaterChildren(t *testing.T) {
	rt := newRT(t, 8)
	hang := rt.NewChan("hang", 0)
	crashes := 0
	earlier, later := 0, 0
	rt.Boot("main", func(th *core.Thread) {
		specs := []ChildSpec{
			{Name: "earlier", Start: func(t *core.Thread) { earlier++; hang.Recv(t) }},
			{Name: "crashy", Start: crashNTimes(&crashes, 2, hang)},
			{Name: "later", Start: func(t *core.Thread) { later++; hang.Recv(t) }},
		}
		sup := Spawn(th, "sup", Config{Strategy: RestForOne, MaxRestarts: 10}, specs)
		th.Sleep(100_000)
		sup.Stop(th)
	})
	rt.Run()
	if earlier != 1 {
		t.Fatalf("earlier child started %d times, want 1", earlier)
	}
	if later != 3 {
		t.Fatalf("later child started %d times, want 3", later)
	}
}

func TestRestartIntensityGivesUp(t *testing.T) {
	rt := newRT(t, 8)
	var sup *Supervisor
	rt.Boot("main", func(th *core.Thread) {
		specs := []ChildSpec{
			{Name: "hopeless", Start: func(t *core.Thread) {
				t.Sleep(100)
				t.Fail(errors.New("always crashes"))
			}},
		}
		sup = Spawn(th, "sup", Config{Strategy: OneForOne, MaxRestarts: 3, Window: 1_000_000}, specs)
	})
	rt.Run()
	if !sup.GaveUp {
		t.Fatal("supervisor never gave up on a crash loop")
	}
	if !errors.Is(sup.self.ExitReason(), ErrRestartIntensity) {
		t.Fatalf("supervisor exit = %v", sup.self.ExitReason())
	}
}

func TestSupervisorOfSupervisors(t *testing.T) {
	rt := newRT(t, 8)
	hang := rt.NewChan("hang", 0)
	grandchildStarts := 0
	var inner *Supervisor
	rt.Boot("main", func(th *core.Thread) {
		outer := Spawn(th, "outer", Config{Strategy: OneForOne, MaxRestarts: 5}, []ChildSpec{
			{Name: "inner-host", Start: func(t *core.Thread) {
				inner = Spawn(t, "inner", Config{Strategy: OneForOne, MaxRestarts: 5}, []ChildSpec{
					{Name: "worker", Start: func(t2 *core.Thread) {
						grandchildStarts++
						if grandchildStarts == 1 {
							t2.Sleep(500)
							t2.Fail(errors.New("boom"))
						}
						hang.Recv(t2)
					}},
				})
				hang.Recv(t) // host parks; inner supervisor runs on
			}},
		})
		th.Sleep(100_000)
		inner.Stop(th)
		outer.Stop(th)
	})
	rt.Run()
	if grandchildStarts != 2 {
		t.Fatalf("grandchild started %d times, want 2", grandchildStarts)
	}
}

func TestNormalExitNotRestarted(t *testing.T) {
	rt := newRT(t, 4)
	starts := 0
	rt.Boot("main", func(th *core.Thread) {
		sup := Spawn(th, "sup", Config{Strategy: OneForOne}, []ChildSpec{
			{Name: "oneshot", Start: func(t *core.Thread) {
				starts++
				t.Compute(100) // finishes normally
			}},
		})
		th.Sleep(50_000)
		sup.Stop(th)
	})
	rt.Run()
	if starts != 1 {
		t.Fatalf("transient child restarted after normal exit: %d starts", starts)
	}
}

func TestUptimeAccounting(t *testing.T) {
	u := NewUptime(0)
	u.Down(100)
	u.Down(150) // idempotent
	u.Up(200)
	u.Up(250) // idempotent
	if d := u.DownTime(1000); d != 100 {
		t.Fatalf("downtime = %d, want 100", d)
	}
	if a := u.Availability(1000); a != 0.9 {
		t.Fatalf("availability = %v, want 0.9", a)
	}
	if n := u.Nines(1000); n < 0.9 || n > 1.1 {
		t.Fatalf("nines = %v, want ~1", n)
	}
	// While down, downtime accrues.
	u2 := NewUptime(0)
	u2.Down(500)
	if d := u2.DownTime(600); d != 100 {
		t.Fatalf("open-interval downtime = %d", d)
	}
	// Perfect uptime = capped nine nines.
	u3 := NewUptime(0)
	if n := u3.Nines(1_000_000); n != 9 {
		t.Fatalf("perfect nines = %v", n)
	}
}

func TestUptimeNinesOrdering(t *testing.T) {
	// More downtime, fewer nines.
	mk := func(down sim.Time) float64 {
		u := NewUptime(0)
		u.Down(0)
		u.Up(down)
		return u.Nines(1_000_000_000)
	}
	if !(mk(10) > mk(1000) && mk(1000) > mk(100_000)) {
		t.Fatalf("nines not monotonic: %v %v %v", mk(10), mk(1000), mk(100_000))
	}
}
