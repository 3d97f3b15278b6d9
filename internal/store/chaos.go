// Chaos-harness taps: a hook on every shard's flight recorder (the
// state-predicate trigger source for internal/chaos schedules) and a
// deliberate in-memory corruption injector used only by the harness's
// known-red schedules. Both stay inside the store's ownership rules —
// the hook observes from the shard's own thread, and the injector
// routes through the shard's message queue like any other request.
package store

import (
	"chanos/internal/kernel"
	"chanos/internal/telemetry"
)

// SetFlightHook arms fn on every shard's flight recorder (nil disarms).
// fn runs on the recording shard's own handler thread, synchronously
// inside Record — it must not mutate simulated state; to act on a
// predicate, schedule an engine event. The chaos harness uses this to
// fire faults at state predicates like "first compaction seal" or
// "sync started".
func (s *Store) SetFlightHook(fn func(shard int, ev telemetry.FlightEvent)) {
	for i, sh := range s.shards {
		if sh == nil {
			continue
		}
		if fn == nil {
			sh.m.flight.Hook = nil
			continue
		}
		id := i
		sh.m.flight.Hook = func(ev telemetry.FlightEvent) { fn(id, ev) }
	}
}

// InjectBitrot silently drops key's index entry on its owning shard —
// simulated in-memory corruption that no invariant machinery announces.
// It exists for the chaos harness's deliberately-red schedules: a
// healthy-looking store that lost an acked write is exactly what the
// zero-acked-loss audit must catch. The injection is a normal shard
// message, so it lands at a deterministic point in the event sequence
// and replays with the schedule.
func (s *Store) InjectBitrot(key string) {
	i := keyHash(key) % s.svc.Shards()
	s.svc.Inject(s.svc.Shard(i), kernel.Request{Op: "bitrot", Key: i, Arg: key}, 0)
}

// bitrot applies the corruption on the shard's handler thread. The
// flight record is the only trace — the matrix asserts the red run's
// ring names the fault that caused it.
func (sh *shard) bitrot(key string) {
	delete(sh.idx, key)
	sh.m.flight.Record(sh.now(), "bitrot", key, 0, 0)
}
