package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", e.Fired())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if ev.Armed() {
		t.Fatal("canceled event still reports armed")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []Timer
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, e.At(Time(i+1), func() { got = append(got, i) }))
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("canceled event %d ran", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, tm := range []Time{5, 10, 15, 20} {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	e.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("RunUntil(12) fired %d events, want 2", len(got))
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("resume fired %d events total, want 4", len(got))
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++; e.Halt() })
	e.At(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("halt did not stop the run: n = %d", n)
	}
	e.Run() // resume
	if n != 2 {
		t.Fatalf("resume after halt failed: n = %d", n)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: with random event times, the engine fires events in
// non-decreasing time order and ends with the clock at the max time.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var maxT Time
		for _, tt := range times {
			tm := Time(tt)
			if tm > maxT {
				maxT = tm
			}
			e.At(tm, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Timer outlives its event: once the event fires or is canceled the
// record is recycled, and the old handle must not reach the event that
// now occupies it.
func TestEngineStaleTimerInert(t *testing.T) {
	e := NewEngine()
	fired := Timer{}
	fired = e.At(1, func() {
		if fired.Armed() {
			t.Error("timer still armed inside its own callback")
		}
	})
	e.Run()
	ran := 0
	next := e.At(2, func() { ran++ })
	if next.ev != fired.ev {
		t.Fatal("fired record was not reused")
	}
	if fired.Armed() {
		t.Fatal("fired timer reports armed after its record was reused")
	}
	e.Cancel(fired)
	if !next.Armed() || e.Pending() != 1 {
		t.Fatal("Cancel through a stale timer disarmed the record's new event")
	}

	canceled := e.At(3, func() { t.Error("canceled event ran") })
	e.Cancel(canceled)
	later := e.At(4, func() { ran++ })
	if later.ev != canceled.ev {
		t.Fatal("canceled record was not reused")
	}
	e.Cancel(canceled)
	e.Run()
	if ran != 2 {
		t.Fatalf("ran %d events, want 2: a stale Cancel removed a live event", ran)
	}
	if (Timer{}).Armed() {
		t.Fatal("zero Timer reports armed")
	}
	e.Cancel(Timer{}) // no-op
}

// Property: random At/After/Cancel/Step sequences, with records being
// recycled underneath, fire exactly what a reference sorted by
// (When, seq) fires, and Fired/Pending/Armed agree with it at every step.
func TestEngineMatchesReferenceProperty(t *testing.T) {
	type refEv struct {
		id   int
		when Time
	}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		var (
			timers []Timer
			ref    []refEv // pending events in scheduling (seq) order
			got    []int
			want   []int
			fired  uint64
		)
		schedule := func(when Time) {
			id := len(timers)
			timers = append(timers, e.At(when, func() { got = append(got, id) }))
			ref = append(ref, refEv{id: id, when: when})
		}
		drop := func(i int) { ref = append(ref[:i], ref[i+1:]...) }
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 3:
				schedule(e.Now() + rng.Uint64n(20))
			case r < 5:
				schedule(e.Now()) // ties on the clock: seq decides
			case r < 7 && len(timers) > 0:
				id := rng.Intn(len(timers))
				e.Cancel(timers[id])
				for i, ev := range ref {
					if ev.id == id {
						drop(i)
						break
					}
				}
			default:
				best := -1
				for i, ev := range ref {
					if best < 0 || ev.when < ref[best].when {
						best = i // strict <: the earlier-scheduled wins ties
					}
				}
				if e.Step() != (best >= 0) {
					t.Fatalf("seed %d op %d: Step disagrees with %d pending in the reference", seed, op, len(ref))
				}
				if best >= 0 {
					want = append(want, ref[best].id)
					drop(best)
					fired++
				}
			}
			if e.Fired() != fired || e.Pending() != len(ref) {
				t.Fatalf("seed %d op %d: Fired/Pending = %d/%d, reference %d/%d",
					seed, op, e.Fired(), e.Pending(), fired, len(ref))
			}
			live := make([]bool, len(timers))
			for _, ev := range ref {
				live[ev.id] = true
			}
			for id, tm := range timers {
				if tm.Armed() != live[id] {
					t.Fatalf("seed %d op %d: timer %d Armed = %v, reference %v", seed, op, id, tm.Armed(), live[id])
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d, reference %d", seed, i, got[i], want[i])
			}
		}
	}
}

// Steady state, scheduling and running an event with a prebound func
// allocates nothing: records come off the free list and the heap and
// trigger queue keep their arrays.
func TestEngineStepAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.After(1, fn)
		e.AtFired(e.Fired()+1, fn)
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.AtFired(e.Fired()+1, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("At+AtFired+Step allocates %.1f per event, want 0", n)
	}
}
