package workload

import (
	"math"
	"testing"

	"chanos/internal/sim"
)

func TestMixProportions(t *testing.T) {
	m := (&Mix{}).Add("a", 70).Add("b", 20).Add("c", 10)
	rng := sim.NewRNG(5)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[m.Pick(rng)]++
	}
	for i, want := range []float64{0.7, 0.2, 0.1} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("op %s frequency %v, want ~%v", m.Name(i), got, want)
		}
	}
}

func TestMixPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty mix did not panic")
		}
	}()
	(&Mix{}).Pick(sim.NewRNG(1))
}

func TestMetadataMixShape(t *testing.T) {
	m := MetadataMix()
	if len(m.names) != 5 {
		t.Fatalf("metadata mix has %d ops", len(m.names))
	}
	if m.Name(0) != "lookup" {
		t.Fatalf("first op = %s", m.Name(0))
	}
}

func TestPopularitySkewAndCoverage(t *testing.T) {
	rng := sim.NewRNG(9)
	p := NewPopularity(rng, 50, 1.0)
	counts := make(map[int]int)
	const n = 50000
	for i := 0; i < n; i++ {
		id := p.Next()
		if id < 0 || id >= 50 {
			t.Fatalf("object id %d out of range", id)
		}
		counts[id]++
	}
	// Hottest object should dwarf the median one.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < n/10 {
		t.Fatalf("no hot object: max share %v", float64(maxC)/n)
	}
}
