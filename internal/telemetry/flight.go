package telemetry

import "chanos/internal/sim"

// FlightEvent is one entry in a shard's flight recorder: a recent
// operation, flush, replication batch or lifecycle transition. A and B
// are event-kind-specific numeric payloads (seq numbers, byte counts,
// batch sizes).
type FlightEvent struct {
	At   sim.Time `json:"at"`
	Kind string   `json:"kind"`
	Key  string   `json:"key,omitempty"`
	A    uint64   `json:"a,omitempty"`
	B    uint64   `json:"b,omitempty"`
}

// DefaultFlightSize is the per-shard ring capacity.
const DefaultFlightSize = 64

// Flight is a fixed-size ring of recent events, owned by exactly one
// shard (no locking, and after init no allocation: old entries are
// overwritten in place). When the shard fail-stops, the ring is what
// the machine was doing in its last moments — the first concrete step
// toward the ROADMAP's machine-core-dump direction.
type Flight struct {
	buf  []FlightEvent
	next int
	n    uint64

	// Hook, when set, observes every Record call after the ring is
	// written — the chaos harness's state-predicate trigger tap
	// ("first compaction seal", "sync started", ...). The hook runs on
	// the recording shard's own thread and must not mutate simulated
	// state directly: schedule an engine event to act.
	Hook func(FlightEvent)
}

// Init sizes the ring (idempotent; size<=0 picks DefaultFlightSize).
func (f *Flight) Init(size int) {
	if f.buf != nil {
		return
	}
	if size <= 0 {
		size = DefaultFlightSize
	}
	f.buf = make([]FlightEvent, size)
}

// Record appends an event, overwriting the oldest when full.
func (f *Flight) Record(at sim.Time, kind, key string, a, b uint64) {
	if f.buf == nil {
		f.Init(0)
	}
	ev := FlightEvent{At: at, Kind: kind, Key: key, A: a, B: b}
	f.buf[f.next] = ev
	f.next = (f.next + 1) % len(f.buf)
	f.n++
	if f.Hook != nil {
		f.Hook(ev)
	}
}

// Recorded returns the total number of events ever recorded (the ring
// keeps only the tail; the count tells how much history was shed).
func (f *Flight) Recorded() uint64 { return f.n }

// Events returns the retained events oldest-first.
func (f *Flight) Events() []FlightEvent {
	if f.buf == nil || f.n == 0 {
		return nil
	}
	if f.n < uint64(len(f.buf)) {
		out := make([]FlightEvent, f.next)
		copy(out, f.buf[:f.next])
		return out
	}
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}
