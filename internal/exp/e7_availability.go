package exp

import (
	"errors"
	"fmt"

	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/supervise"
)

func init() {
	register("E7", "Table 3: availability under faults — supervision vs monolithic (§1, §5)", e7Availability)
}

// crashMarker poisons a request: the worker that receives it dies, as if
// it hit an injected bug.
type crashMarker struct{}

// e7MeasuredRestart measures downtime per fault by direct simulation: a
// supervised worker crashes on a poisoned request; downtime is the gap
// until the restarted worker serves the next call. The service channel
// is rendezvous, so a call completes only against a live worker.
func e7MeasuredRestart(o Options) float64 {
	w := newWorld(8, o.seed(), core.Config{})
	defer w.close()

	svc := w.rt.NewChan("calls", 0)
	worker := func(t *core.Thread) {
		for {
			v, ok := svc.Recv(t)
			if !ok {
				return
			}
			call := v.(core.Call)
			if _, bad := call.Arg.(crashMarker); bad {
				t.Fail(errors.New("injected fault"))
			}
			t.Compute(2_000)
			call.Reply.Send(t, true)
		}
	}

	injections := 20
	if o.Quick {
		injections = 8
	}
	var total sim.Time
	w.rt.Boot("main", func(t *core.Thread) {
		sup := supervise.Spawn(t, "sup",
			supervise.Config{Strategy: supervise.OneForOne, MaxRestarts: 10_000},
			[]supervise.ChildSpec{{Name: "worker", Start: worker}})
		call := func() {
			reply := t.NewChan("r", 1)
			svc.Send(t, core.Call{Reply: reply})
			reply.Recv(t)
		}
		call() // warm up: first worker serving
		for i := 0; i < injections; i++ {
			t.Sleep(100_000)
			crash := t.NewChan("crash", 1)
			svc.Send(t, core.Call{Arg: crashMarker{}, Reply: crash})
			start := t.Now()
			call() // blocks until the replacement worker serves
			total += t.Now() - start
		}
		sup.Stop(t)
	})
	w.rt.Run()
	return float64(total) / float64(injections)
}

func e7Availability(o Options) []*stats.Table {
	restart := e7MeasuredRestart(o)

	// Year-scale model: faults arrive Poisson over one simulated year;
	// each fault costs the measured restart gap (supervised) or a full
	// node reboot (monolithic fail-stop). The year itself cannot be
	// event-simulated at per-call granularity (6.3e16 cycles), so the
	// measured per-fault downtime feeds a fault-arrival model instead.
	const rebootSec = 30.0
	const year = 365.25 * 24 * 3600.0
	const cyclesPerSec = 2e9
	restartSec := restart / cyclesPerSec

	nines := func(downSec float64) string {
		if downSec <= 0 {
			return "9.0 (cap)"
		}
		u := supervise.NewUptime(0)
		u.Down(0)
		u.Up(sim.Time(downSec * 1e6))
		return fmt.Sprintf("%.1f", u.Nines(sim.Time(year*1e6)))
	}

	rng := sim.NewRNG(o.seed() + 99)
	tb := stats.NewTable("E7 / Table 3: one simulated year of faults — downtime and nines",
		"faults/year", "supervised downtime", "supervised nines", "monolithic downtime", "monolithic nines")
	for _, faultsPerYear := range []float64{12, 120, 1200} {
		n := 0
		tacc := 0.0
		for {
			tacc += rng.ExpFloat64() * (year / faultsPerYear)
			if tacc >= year {
				break
			}
			n++
		}
		supDown := float64(n) * restartSec
		monDown := float64(n) * rebootSec
		tb.AddRow(
			fmt.Sprintf("%.0f", faultsPerYear),
			fmt.Sprintf("%.4f s", supDown),
			nines(supDown),
			fmt.Sprintf("%.0f s", monDown),
			nines(monDown),
		)
	}
	tb.Note("measured supervised restart gap: %.0f cycles = %.1f µs/fault; monolithic reboot: %.0f s/fault",
		restart, restartSec*1e6, rebootSec)
	tb.Note("claim (§1): Erlang-style restart yields AXD301-class nines ('down no more than 32 ms per year');")
	tb.Note("at 120 faults/year the supervised switch stays in the 32 ms/year regime")
	return []*stats.Table{tb}
}
