package sim

import (
	"slices"
	"testing"
)

// A record that fired goes back on the free list and carries the next
// value; each value fires exactly once, at its own time, and the
// released value never fires again through the reused record.
func TestRelayReusedRecordFiresOnce(t *testing.T) {
	e := NewEngine()
	var got []int
	r := NewRelay(e, func(v int) { got = append(got, v) })
	r.After(10, 1)
	e.Run()
	if r.recs.Len() != 1 {
		t.Fatalf("%d records free after one fired, want 1", r.recs.Len())
	}
	rec := r.recs.Get() // the one free record; put back at once
	r.recs.Put(rec)
	r.After(5, 2)
	if r.recs.Len() != 0 || rec.v != 2 {
		t.Fatalf("second value did not reuse the released record")
	}
	e.Run()
	if !slices.Equal(got, []int{1, 2}) || e.Fired() != 2 {
		t.Fatalf("fired %v in %d events, want [1 2] in 2", got, e.Fired())
	}
	if rec.v != 0 {
		t.Fatalf("released record still holds %d", rec.v)
	}
}

// A callback may schedule through its own relay: the record it fired
// from is already free, so the chain reuses one record, and relay
// events interleave with closures exactly by (time, schedule order).
func TestRelayOrderAndSelfScheduling(t *testing.T) {
	e := NewEngine()
	var got []int
	var r *Relay[int]
	r = NewRelay(e, func(v int) {
		got = append(got, v)
		if v < 3 {
			r.After(1, v+1)
		}
	})
	r.At(5, 1)
	e.At(5, func() { got = append(got, 100) })
	r.At(5, 50)
	e.Run()
	if want := []int{1, 100, 50, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if r.recs.Len() != 2 {
		t.Fatalf("%d records after the run, want 2 (two values were ever in flight at once)", r.recs.Len())
	}
}

func TestRelayAllocFree(t *testing.T) {
	e := NewEngine()
	r := NewRelay(e, func(struct{ a, b int }) {})
	for i := 0; i < 8; i++ {
		r.After(1, struct{ a, b int }{i, i})
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.After(1, struct{ a, b int }{1, 2})
		e.Step()
	}); n != 0 {
		t.Fatalf("relay After+Step allocates %.1f per event, want 0", n)
	}
}
