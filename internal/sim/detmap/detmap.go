// Package detmap provides deterministic iteration over Go maps.
//
// Go randomizes map iteration order on purpose, which is exactly wrong
// for a simulation whose whole contract is "same seed, same event
// schedule, same bytes". Any loop that ranges over a map on a live
// path — anything that sends messages, schedules events, appends to a
// log, or writes output that a gate byte-compares — perturbs the run
// from seed alone. PR 8 shipped that bug: an audit iterated a ledger
// in map order while the fleet was live, and same-seed runs diverged.
//
// The chanos-vet `mapiter` analyzer flags raw map ranges in
// schedule-affecting packages; this package is the sanctioned rewrite.
// Iteration costs one O(n log n) key sort per loop, which is noise for
// the map sizes the simulation holds (shards, connections, machines)
// and buys a total order the replay contract can rely on.
package detmap

import (
	"cmp"
	"iter"
	"slices"
)

// Keys returns m's keys sorted ascending. The slice is freshly
// allocated; callers may keep or mutate it.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	ks := make([]K, 0, len(m))
	for k := range m { //chanos:allow mapiter detmap is the sorted-iteration primitive itself; the sort below erases map order
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Sorted returns an iterator over m's entries in ascending key order:
//
//	for k, v := range detmap.Sorted(m) { ... }
//
// The key order is snapshotted before the first yield; deleting from m
// inside the loop is safe (deleted keys still yield their snapshotted
// value read at visit time — entries removed before their turn yield
// the zero value only if the caller deleted them, matching the raw
// range-and-delete contract closely enough for live paths, which
// should prefer collecting keys first anyway).
func Sorted[M ~map[K]V, K cmp.Ordered, V any](m M) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for _, k := range Keys(m) {
			if !yield(k, m[k]) {
				return
			}
		}
	}
}
