// Golden fixture for the mapiter analyzer: seeded violations (a
// dispatch, three folds and three maps-package iterators), one clean
// detmap rewrite and one waived range. The package is loaded by
// golden_test.go under a schedule-affecting import path so the
// analyzer applies.
package fx_mapiter

import (
	"maps"
	"slices"

	"chanos/internal/sim/detmap"
)

// dispatch issues one call per entry in raw map order — the seeded
// violation: each handler invocation lands on the event schedule in a
// different order every run.
func dispatch(m map[string]func()) {
	for _, f := range m { // want "range over map"
		f()
	}
}

// count is an integer sum, which map order cannot change, yet it is
// still a finding: the analyzer proves no fold order-free, because
// concat and fsum below have the same shape and do depend on order.
func count(m map[string]int) int {
	n := 0
	for _, v := range m { // want "range over map"
		n += v
	}
	return n
}

// concat's result is the keys in visit order.
func concat(m map[string]int) string {
	s := ""
	for k := range m { // want "range over map"
		s += k
	}
	return s
}

// fsum rounds differently for each order of its addends.
func fsum(m map[string]float64) float64 {
	f := 0.0
	for _, v := range m { // want "range over map"
		f += v
	}
	return f
}

// allDispatch and collected range over maps-package iterators, which
// yield in map order just as a raw range does.
func allDispatch(m map[string]func()) {
	for _, f := range maps.All(m) { // want "maps.All yields in map order"
		f()
	}
}

func collected(m map[string]int) []string {
	var out []string
	for _, k := range slices.Collect(maps.Keys(m)) { // want "maps.Keys yields in map order"
		out = append(out, k)
	}
	return out
}

// values instantiates maps.Values explicitly; the call still counts.
func values(m map[string]int) []int {
	return slices.Collect(maps.Values[map[string]int](m)) // want "maps.Values yields in map order"
}

// sortedDispatch is the sanctioned rewrite: detmap.Sorted yields a
// func-range, not a map range, so there is nothing to flag.
func sortedDispatch(m map[string]func()) {
	for _, f := range detmap.Sorted(m) {
		f()
	}
}

// waivedDispatch shows the escape hatch: a justified inline waiver on
// the line above the range suppresses the finding (and golden_test.go
// asserts the waiver registers as used).
func waivedDispatch(m map[string]func()) {
	//chanos:allow mapiter fixture: callbacks here are order-independent by construction
	for _, f := range m {
		f()
	}
}
