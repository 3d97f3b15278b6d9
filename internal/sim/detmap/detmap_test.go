package detmap

import (
	"slices"
	"testing"
)

func TestKeysSorted(t *testing.T) {
	m := map[int]string{5: "e", 1: "a", 3: "c", 2: "b", 4: "d"}
	got := Keys(m)
	want := []int{1, 2, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

func TestSortedVisitsEveryEntryInOrder(t *testing.T) {
	m := map[string]int{"b": 2, "a": 1, "c": 3}
	var ks []string
	var vs []int
	for k, v := range Sorted(m) {
		ks = append(ks, k)
		vs = append(vs, v)
	}
	if !slices.Equal(ks, []string{"a", "b", "c"}) || !slices.Equal(vs, []int{1, 2, 3}) {
		t.Fatalf("Sorted visited (%v, %v)", ks, vs)
	}
}

func TestSortedEarlyBreak(t *testing.T) {
	m := map[int]int{1: 10, 2: 20, 3: 30}
	var seen []int
	for k := range Sorted(m) {
		seen = append(seen, k)
		if k == 2 {
			break
		}
	}
	if !slices.Equal(seen, []int{1, 2}) {
		t.Fatalf("early break visited %v", seen)
	}
}

func TestEmptyAndNilMaps(t *testing.T) {
	var nilm map[int]int
	if got := Keys(nilm); len(got) != 0 {
		t.Fatalf("Keys(nil) = %v", got)
	}
	for range Sorted(nilm) {
		t.Fatal("Sorted(nil) yielded an entry")
	}
}

// TestDeterministicAcrossRuns is the point of the package: two
// iterations of the same map must visit identically — raw map range
// gives no such guarantee.
func TestDeterministicAcrossRuns(t *testing.T) {
	m := map[uint64]int{}
	for i := uint64(0); i < 300; i++ {
		m[i*2654435761] = int(i)
	}
	first := slices.Collect(func(yield func(uint64) bool) {
		for k := range Sorted(m) {
			if !yield(k) {
				return
			}
		}
	})
	for run := 0; run < 5; run++ {
		again := Keys(m)
		if !slices.Equal(first, again) {
			t.Fatalf("run %d visited a different order", run)
		}
	}
}
