// The half of a scenario world that kvload and cluster share: the
// collector, the drive loops, the run report, and the one Replay that
// reboots either world from a dump.
package dump

import (
	"fmt"

	"chanos/internal/net"
	"chanos/internal/sim"
)

// Drive is the half of a world that World and ClusterWorld share: the
// collector over the world's serving machines, the host-side
// drive-loop policy, and the (seed, config) recipe the world booted
// from. Its loops advance the one engine every machine runs on, so a
// kvload machine and a nine-machine cluster are driven — and halt on a
// replay coordinate — by the same code.
type Drive struct {
	C *Collector

	// OnSlice, when set, runs in host context after each drive slice of
	// the fleet phase (slice index from 0). Host-side only — printing
	// live stats here cannot perturb the simulation.
	OnSlice func(i int)

	// StallBudget overrides how many consecutive zero-progress drive
	// slices Run tolerates before declaring the fleet stalled (0 = the
	// default stallCycles horizon: 50 kvload slices, 200 cluster
	// slices). Host-side drive-loop policy only — it never touches the
	// event sequence, so a replay may use any budget large enough to
	// reach the recorded event. The chaos harness raises it past the
	// wire's ~57M-cycle RTO give-up horizon so a run that must *detect*
	// a dead replica isn't misread as a hung one.
	StallBudget int

	seed  uint64
	cfg   Config
	slice sim.Time
}

// stallCycles is the default stall horizon: this many cycles with no
// fleet progress and Run gives up.
const stallCycles = 20_000_000

// Scenario is a booted world of either shape — *World (kvload) or
// *ClusterWorld — as Replay returns it.
type Scenario interface {
	Run() *Report
	Close()
	Driver() *Drive
}

// Driver returns the world's shared half.
func (d *Drive) Driver() *Drive { return d }

// Config returns the world's filled scenario config.
func (d *Drive) Config() Config { return d.cfg }

// Slice is the world's drive slice in cycles: every fleet-phase step
// of Run, and every step of a harness draining the world after it.
func (d *Drive) Slice() sim.Time { return d.slice }

// StallSlices is how many consecutive zero-progress drive slices Run
// tolerates before declaring the fleet stalled: StallBudget, or by
// default the stallCycles horizon in slices.
func (d *Drive) StallSlices() int {
	if d.StallBudget > 0 {
		return d.StallBudget
	}
	return int(stallCycles / d.slice)
}

// RunFor advances the world's engine by cycles.
func (d *Drive) RunFor(cycles sim.Time) { d.C.Eng.RunUntil(d.C.Eng.Now() + cycles) }

// waitFor runs step-cycle slices until done reports true, the engine
// trips a replay halt, or maxSteps slices have run (0 = no bound).
func (d *Drive) waitFor(step sim.Time, maxSteps int, done func() bool) {
	for i := 0; (maxSteps == 0 || i < maxSteps) && !done() && !d.C.Eng.StopReached(); i++ {
		d.RunFor(step)
	}
}

// drive is the fleet phase: run slice after slice until progress
// reaches the config's request count, the engine trips a replay halt,
// or StallBudget consecutive slices pass with no progress (stalled).
func (d *Drive) drive(progress func() uint64) (stalled bool) {
	eng, budget := d.C.Eng, d.StallSlices()
	idle := 0
	for i := 0; progress() < uint64(d.cfg.Requests) && !eng.StopReached(); i++ {
		before := progress()
		d.RunFor(d.slice)
		if d.OnSlice != nil {
			d.OnSlice(i)
		}
		if eng.StopReached() {
			break
		}
		if progress() == before {
			idle++
		} else {
			idle = 0
		}
		if idle >= budget {
			return true
		}
	}
	return false
}

// finish stamps the end of a Run: whether a replay halt froze it, and
// otherwise every serving machine's conservation violations, each
// prefixed with its node. A halted replay is frozen mid-flight; the
// conservation fold is only meaningful over a machine that was allowed
// to drain. The fold takes host-side snapshots only.
func (d *Drive) finish(r *Report) {
	r.Halted = d.C.Eng.StopReached()
	if r.Halted {
		return
	}
	for i, m := range d.C.Nodes {
		for _, bad := range m.SD.SnapshotNow().Conservation() {
			r.ConservationBad = append(r.ConservationBad, fmt.Sprintf("node %d: %s", i, bad))
		}
	}
}

// Report is what one Run produced.
type Report struct {
	Filled         bool
	PrefillCycles  sim.Time
	Responses      uint64
	Completed      uint64
	Errs           uint64
	NotFound       uint64
	ReplicaGets    uint64
	ReplicaRefused uint64
	Stalled        bool
	// Halted: the engine tripped StopAtFired (replay reached its
	// recorded event count) before the workload finished.
	Halted          bool
	ConservationBad []string
	Pool            *net.ClientPool
	RPool           *net.ClientPool
}

// Replay is the time-travel half of the dump contract: rebuild the
// dumped world — kvload or cluster — from its (seed, config) and run
// with the engine armed to halt once EventCount counted events have
// fired, so every machine stops in exactly the dumped state, one event
// short of the failing instant. The halt check is the replay
// coordinate itself (Fired() == EventCount), not the stop latch: an
// on-demand dump taken right after Run lands exactly on the drive
// loop's own exit, where the armed stop never latches. The caller owns
// w (Close it) and can re-dump via w.Driver().C for differential
// comparison, or resume with StopAtFired(0) to step past the failure.
func Replay(d *Dump) (Scenario, *Report, error) {
	var w Scenario
	switch {
	case d.Config.Chaos != "":
		// A chaos dump's event sequence includes its fault schedule;
		// replaying without arming it would diverge. internal/chaos owns
		// that arming (chaos.Replay) — dump cannot import it.
		return nil, nil, fmt.Errorf("dump carries a chaos schedule %q: replay it through chaos.Replay (chanos-sim -replay routes there)", d.Config.Chaos)
	case d.Config.Scenario == ScenarioKVLoad:
		w = Build(d.Seed, d.Config)
	case d.Config.Scenario == ScenarioCluster:
		w = BuildCluster(d.Seed, d.Config)
	default:
		return nil, nil, fmt.Errorf("scenario %q is not replayable (only %q and %q worlds boot from a config; this dump still inspects and diffs)",
			d.Config.Scenario, ScenarioKVLoad, ScenarioCluster)
	}
	eng := w.Driver().C.Eng
	eng.StopAtFired(d.EventCount)
	rep := w.Run()
	if eng.Fired() != d.EventCount {
		return w, rep, fmt.Errorf("replay finished at event %d, recorded %d (dump from a different build?)",
			eng.Fired(), d.EventCount)
	}
	return w, rep, nil
}
