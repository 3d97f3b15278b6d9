// Replay: the time-travel contract extended to chaos runs. A chaos
// dump's Config.Chaos carries the serialized fault schedule, so the
// replay re-arms the identical fault timeline (same counted-event
// coordinates, same predicate instants) and halts the engine at the
// recorded event — the harness re-executes the exact phase sequence of
// the original run (drive, drain, live audit), every phase gated on
// StopReached, because on-demand red dumps record their event count
// after the audit ran.
package chaos

import (
	"fmt"
	"strings"

	"chanos/internal/dump"
)

// Replay rebuilds a chaos dump's world and halts at its recorded
// event, refusing first, as dump.Replay does, a dump that Validate
// faults. The returned Result keeps its world open (Result.Close) so
// callers can take a differential snapshot against the original dump.
func Replay(d *dump.Dump) (*Result, error) {
	if d.Config.Chaos == "" {
		return nil, fmt.Errorf("chaos: dump carries no schedule; use dump.Replay")
	}
	if bad := d.Validate(); len(bad) > 0 {
		return nil, fmt.Errorf("chaos: dump is not valid:\n  %s", strings.Join(bad, "\n  "))
	}
	sched, err := Parse(d.Config.Chaos)
	if err != nil {
		return nil, err
	}
	if err := sched.Validate(d.Config); err != nil {
		return nil, err
	}
	r, err := Run(Spec{
		Label:     "replay",
		Seed:      d.Seed,
		Cfg:       d.Config,
		Sched:     sched,
		StopAt:    d.EventCount,
		KeepWorld: true,
	})
	if err != nil {
		return nil, err
	}
	// An on-demand dump lands exactly on a drive loop's own exit, so
	// the armed stop may never latch — the coordinate is the contract.
	if r.EventCount != d.EventCount {
		r.Close()
		return nil, fmt.Errorf("chaos: replay finished at event %d, recorded %d (dump from a different build?)",
			r.EventCount, d.EventCount)
	}
	return r, nil
}

// Snapshot re-dumps the replayed world for differential comparison
// with the original (dump.Diff on the pair; byte-equal means the
// machine state reproduced exactly).
func (r *Result) Snapshot(reason string) (*dump.Dump, error) {
	if r.World == nil {
		return nil, fmt.Errorf("chaos: result holds no world (run without KeepWorld?)")
	}
	return r.World.Driver().C.Snapshot(reason), nil
}
