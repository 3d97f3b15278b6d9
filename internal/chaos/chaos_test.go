// The chaos matrix's test face: four invariant-named sweeps that
// together cover the whole DefaultRows matrix (each takes one quarter
// of the seeds, so the full tier fans 100 seeded schedules and -short
// fans 20), a determinism regression (same seed + schedule twice =
// identical event counts and byte-equal dumps), and a deliberately red
// bitrot schedule proving the matrix catches reds AND that the written
// dump's replay halts at the recorded event with a clean diff.
package chaos

import (
	"strings"
	"testing"

	"chanos/internal/dump"
)

// sweepEpoch advances once per invariant-sweep invocation, so `go test
// -run TestChaosNoAckedLoss -count=20` covers twenty disjoint seed
// sets instead of re-running one.
var sweepEpoch uint64

func runInvariantSweep(t *testing.T, part int, inv string) {
	rows := PartRows(DefaultRows(testing.Short()), part, len(Invariants))
	epoch := sweepEpoch
	sweepEpoch++
	base := 0xC4A0_0000 + uint64(part)*0x10_000 + epoch*0x100_0000
	m, err := Sweep(rows, base, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.ByInvariant[inv]; n > 0 {
		t.Errorf("%s violated in %d of %d runs", inv, n, m.Runs)
	}
	// Any red fails the sweep — the named invariant is this test's
	// focus, but a red seed is a red seed; surface its repro triple.
	for _, row := range m.Rows {
		for _, red := range row.Reds {
			t.Errorf("RED %s seed=%d schedule=%q violations=%v details=%v replay=%s",
				row.Label, red.Seed, red.Schedule, red.Violations, red.Details, red.ReplayCmd)
		}
	}
	var fired, armed int
	for _, row := range m.Rows {
		fired += row.ClausesFired
		armed += row.ClausesArmed
	}
	t.Logf("%d runs green for %s; %d/%d clauses fired", m.Runs-m.Red, inv, fired, armed)
	if fired == 0 {
		t.Errorf("no fault clause fired across %d runs — the matrix exercised nothing", m.Runs)
	}
}

func TestChaosNoAckedLoss(t *testing.T)      { runInvariantSweep(t, 0, InvAckedLoss) }
func TestChaosNoClientHang(t *testing.T)     { runInvariantSweep(t, 1, InvClientHang) }
func TestChaosBoundedStaleness(t *testing.T) { runInvariantSweep(t, 2, InvStaleness) }
func TestChaosFailStopOrHeal(t *testing.T)   { runInvariantSweep(t, 3, InvFailStop) }

// TestChaosScheduleRoundTrip: Parse(s.String()) is exact for generated
// schedules across families — replay depends on it.
func TestChaosScheduleRoundTrip(t *testing.T) {
	for _, row := range DefaultRows(false) {
		for seed := uint64(1); seed <= 50; seed++ {
			s := Generate(row.Cfg, seed)
			back, err := Parse(s.String())
			if err != nil {
				t.Fatalf("%s seed %d: %v", row.Label, seed, err)
			}
			if back.String() != s.String() {
				t.Fatalf("%s seed %d: round trip %q != %q", row.Label, seed, back.String(), s.String())
			}
			if err := s.Validate(row.Cfg); err != nil {
				t.Fatalf("%s seed %d: generated schedule invalid: %v", row.Label, seed, err)
			}
		}
	}
	if _, err := Parse("cy:abc:disk-fail:0:0:1"); err == nil {
		t.Fatal("bad trigger arg parsed")
	}
	if _, err := Parse("cy:100:disk-fail:0"); err == nil {
		t.Fatal("bad arity parsed")
	}
	if _, err := Parse("when:100:disk-fail:0:0:1"); err == nil {
		t.Fatal("unknown trigger parsed")
	}
}

// TestRunRefusesImpossibleKVLoad: a kvload world boots at most one
// replica machine, so a config asking for two is an error before boot —
// not a green run whose clause "fired" against a slot that never
// existed.
func TestRunRefusesImpossibleKVLoad(t *testing.T) {
	sched, err := Parse("cy:1000000:kill-replica:0:1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Spec{Label: "repl", Seed: 1, Cfg: dump.Config{Replicas: 2}, Sched: sched})
	if err == nil {
		r.Close()
		t.Fatalf("Run accepted a kvload config with two replica machines (%d/%d clauses fired)",
			len(r.FiredClauses), len(sched))
	}
	if !strings.Contains(err.Error(), "-replicas 2") {
		t.Fatalf("Run's error does not name the flag: %v", err)
	}
}

// TestChaosDeterminism: the same seed and schedule, run twice, fire
// the identical number of counted events and leave byte-identical
// machine state — and that event count and fired-clause count are the
// ones recorded for each short row at seed 42, so a change to the
// harness, a world or the boot order that moves either fails here, not
// only across two runs of one build. If a change moves them on
// purpose, say why and record the new values.
func TestChaosDeterminism(t *testing.T) {
	pinned := map[string]struct {
		events uint64
		fired  int
	}{
		"solo":     {12132, 3},
		"repl":     {20763, 2},
		"cluster3": {44082, 2},
	}
	rows := DefaultRows(true)
	for _, row := range rows {
		row := row
		t.Run(row.Label, func(t *testing.T) {
			var evs [2]uint64
			var snaps [2][]byte
			var fired [2]int
			for i := 0; i < 2; i++ {
				r, err := Run(Spec{Label: row.Label, Seed: 42, Cfg: row.Cfg,
					DumpDir: t.TempDir(), KeepWorld: true})
				if err != nil {
					t.Fatal(err)
				}
				d, err := r.Snapshot("determinism")
				if err != nil {
					t.Fatal(err)
				}
				evs[i] = r.EventCount
				snaps[i] = d.Encode()
				fired[i] = len(r.FiredClauses)
				r.Close()
			}
			if evs[0] != evs[1] {
				t.Fatalf("event counts diverged: %d != %d", evs[0], evs[1])
			}
			if fired[0] != fired[1] {
				t.Fatalf("fired-clause counts diverged: %d != %d", fired[0], fired[1])
			}
			if string(snaps[0]) != string(snaps[1]) {
				t.Fatalf("final dumps differ (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
			}
			if want := pinned[row.Label]; evs[0] != want.events || fired[0] != want.fired {
				t.Errorf("fired %d events and %d clauses, recorded %d and %d",
					evs[0], fired[0], want.events, want.fired)
			}
			t.Logf("%s: %d events, %d clauses fired, %d dump bytes, twice",
				row.Label, evs[0], fired[0], len(snaps[0]))
		})
	}
}

// redBitrotSpec is a deliberately red schedule: silently drop one hot
// key's index entry late in the run. The acked-loss invariant must
// catch it (the key was acknowledged, the serving store lost it, and
// the platters still hold it — so ONLY the live audit can see it).
func redBitrotSpec(dir string) Spec {
	rows := DefaultRows(true)
	return Spec{Label: "red-bitrot", Seed: 7, Cfg: rows[0].Cfg,
		Sched:   Schedule{{Trig: TrigCycle, At: 4_000_000, Fault: FaultBitrot, Args: []int{0, 3}}},
		DumpDir: dir}
}

// TestChaosRedBitrot: the matrix catches the seeded red, names the
// right invariant, and writes a dump whose printed replay command
// carries the schedule.
func TestChaosRedBitrot(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(redBitrotSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Red() {
		t.Fatalf("bitrot run came back green: %+v", r)
	}
	if r.Violations[0] != InvAckedLoss {
		t.Fatalf("wrong invariant fired: %v", r.Violations)
	}
	if r.DumpPath == "" || r.ReplayCmd == "" {
		t.Fatalf("red run wrote no dump: %+v", r)
	}
	d, err := dump.ReadFile(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Chaos != r.Schedule {
		t.Fatalf("dump config chaos %q != run schedule %q", d.Config.Chaos, r.Schedule)
	}
	if !strings.Contains(r.ReplayCmd, "-replay") {
		t.Fatalf("replay command %q is not a replay line", r.ReplayCmd)
	}
}

// TestChaosRedReplay: replaying the red dump halts at the exact
// recorded event and reproduces byte-identical machine state — the
// acceptance gate for the whole replay contract.
func TestChaosRedReplay(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(redBitrotSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Red() || r.DumpPath == "" {
		t.Fatalf("red run did not dump: %+v", r)
	}
	orig, err := dump.ReadFile(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}

	// The generic replayers must refuse and route here.
	if _, _, err := dump.Replay(orig); err == nil {
		t.Fatal("dump.Replay accepted a chaos dump")
	}

	rr, err := Replay(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.EventCount != orig.EventCount {
		t.Fatalf("replay halted at event %d, recorded %d", rr.EventCount, orig.EventCount)
	}
	redump, err := rr.Snapshot(orig.Reason)
	if err != nil {
		t.Fatal(err)
	}
	if diff := dump.Diff(orig, redump); len(diff) > 0 {
		t.Fatalf("replayed state differs from dump:\n%s", strings.Join(diff, "\n"))
	}
}
