package sim

// Relay carries values of type T to one fixed callback through engine
// events that allocate nothing once warm. A closure per scheduled event
// would allocate on every call; a relay instead recycles records, each
// of which bound its engine callback once, when it was created. When a
// record fires it copies its value out, goes back on the free list and
// only then runs the callback, so the callback may schedule through the
// same relay — even into the same record.
//
// Each At or After is one ordinary counted event at the same time and
// in the same sequence a closure scheduled there would have been: a
// relay changes what the host allocates, never what the engine runs.
// Relay events cannot be canceled; owners that need a cancelable timer
// keep a Timer from Engine.At instead.
type Relay[T any] struct {
	eng  *Engine
	fn   func(T)
	recs FreeList[relayRec[T]]
}

// relayRec is one in-flight relay value: v is live from At until fire
// copies it out.
type relayRec[T any] struct {
	r    *Relay[T]
	v    T
	fire func() // rec.run, bound once
}

// NewRelay returns a relay on eng that hands every value to fn, in
// engine context, at the time it was scheduled for.
func NewRelay[T any](eng *Engine, fn func(T)) *Relay[T] {
	return &Relay[T]{eng: eng, fn: fn}
}

// At schedules fn(v) at absolute time t.
func (r *Relay[T]) At(t Time, v T) {
	rec := r.recs.Get()
	if rec.fire == nil {
		rec.r, rec.fire = r, rec.run
	}
	rec.v = v
	r.eng.At(t, rec.fire)
}

// After schedules fn(v) d cycles from now.
func (r *Relay[T]) After(d Time, v T) { r.At(r.eng.now+d, v) }

func (rec *relayRec[T]) run() {
	v := rec.v
	var zero T
	rec.v = zero
	rec.r.recs.Put(rec)
	rec.r.fn(v)
}
