package sim

import "testing"

// TestStopAtFired replays a run to event N: the engine halts with
// exactly N events executed and the clock at event N's time,
// ignoring the RunUntil target's clock-force.
func TestStopAtFired(t *testing.T) {
	build := func() (*Engine, *int) {
		e := NewEngine()
		n := new(int)
		for i := Time(1); i <= 10; i++ {
			e.At(i*10, func() { *n++ })
		}
		return e, n
	}
	e, n := build()
	e.Run()
	if *n != 10 || e.Fired() != 10 {
		t.Fatalf("full run: n=%d fired=%d", *n, e.Fired())
	}

	e, n = build()
	e.StopAtFired(4)
	e.RunUntil(1000)
	if !e.StopReached() {
		t.Fatal("stop never reached")
	}
	if *n != 4 || e.Fired() != 4 {
		t.Fatalf("stopped run: n=%d fired=%d, want 4/4", *n, e.Fired())
	}
	if e.Now() != 40 {
		t.Fatalf("clock at %d, want 40 (the 4th event's time, not the RunUntil target)", e.Now())
	}
	// Further run calls stay parked.
	e.RunUntil(2000)
	e.Run()
	if *n != 4 || e.Now() != 40 {
		t.Fatalf("machine moved past the stop: n=%d now=%d", *n, e.Now())
	}
	// Disarming resumes exactly where the replay paused.
	e.StopAtFired(0)
	e.Run()
	if *n != 10 || e.Fired() != 10 {
		t.Fatalf("resume after disarm: n=%d fired=%d", *n, e.Fired())
	}
}

// TestAtFired covers the counted-event trigger axis the chaos harness
// arms its ev: clauses on: a trigger runs immediately after counted
// event n's callback (same instant, before the next event pops), equal
// arming counts run in arming order, triggers are not counted, and
// arming at or before the current count panics like scheduling in the
// past.
func TestAtFired(t *testing.T) {
	e := NewEngine()
	var order []string
	for i := Time(1); i <= 5; i++ {
		i := i
		e.At(i*10, func() { order = append(order, "ev") })
	}
	e.AtFired(2, func() { order = append(order, "trigB") })
	e.AtFired(2, func() {
		order = append(order, "trigC")
		if e.Now() != 20 {
			t.Fatalf("trigger at event 2 ran at cycle %d, want 20", e.Now())
		}
	})
	e.AtFired(4, func() { order = append(order, "trigD") })
	e.Run()
	want := []string{"ev", "ev", "trigB", "trigC", "ev", "ev", "trigD", "ev"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (triggers must not count)", e.Fired())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("arming a trigger in the past did not panic")
		}
	}()
	e.AtFired(3, func() {})
}

// TestAtFiredArmsMoreWork: a trigger may schedule further events and
// triggers — the chaos pred: path does exactly this (a flight-recorder
// hook arming an injection event at the observing instant).
func TestAtFiredArmsMoreWork(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {})
	e.AtFired(1, func() {
		e.At(e.Now()+5, func() { got = append(got, e.Now()) })
		e.AtFired(2, func() { got = append(got, 0) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 15 || got[1] != 0 {
		t.Fatalf("got %v, want [15 0] (event at 15, then the event-2 trigger)", got)
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", e.Fired())
	}
}

// TestAfterEvent: a callback armed from an event runs after that
// event's own callback and after the triggers already armed at its
// count — including one armed by an earlier AfterEvent — but before
// the next event pops, at the same instant, and is not counted.
func TestAfterEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() {
		order = append(order, "ev1")
		e.AfterEvent(func() {
			order = append(order, "after")
			if e.Now() != 10 || e.Fired() != 1 {
				t.Fatalf("AfterEvent ran at cycle %d, fired %d; want 10, 1", e.Now(), e.Fired())
			}
			e.AfterEvent(func() { order = append(order, "after2") })
		})
	})
	e.At(10, func() { order = append(order, "ev2") })
	e.AtFired(1, func() { order = append(order, "trig") })
	e.Run()
	want := []string{"ev1", "trig", "after", "after2", "ev2"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2 (AfterEvent must not count)", e.Fired())
	}
}

// TestAfterEventFromTheLastEvent: armed from the last event a run
// pops — the world's last, or the last before a StopAtFired halt — the
// callback still runs before Run returns, so a capture armed by the
// failing event is never lost to an empty heap or a replay halt.
func TestAfterEventFromTheLastEvent(t *testing.T) {
	for _, stop := range []uint64{0, 1} {
		e := NewEngine()
		ran := 0
		e.At(10, func() { e.AfterEvent(func() { ran++ }) })
		if stop == 0 {
			e.At(20, func() { e.AfterEvent(func() { ran++ }) })
		} else {
			e.At(20, func() { t.Fatal("event 2 popped past StopAtFired(1)") })
			e.StopAtFired(stop)
		}
		e.Run()
		if want := 2 - int(stop); ran != want {
			t.Fatalf("stop=%d: %d AfterEvent callbacks ran, want %d", stop, ran, want)
		}
	}
}
