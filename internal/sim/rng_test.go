package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == r.Uint64() {
		t.Fatal("zero-seeded RNG is constant")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1.0", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 50 heavily under s=1.
	if counts[0] < 5*counts[50] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Every draw in range is implied by indexing; check total.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("zipf total %d != %d", total, n)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(17)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.15 {
			t.Fatalf("s=0 zipf not uniform: counts[%d]=%d", i, c)
		}
	}
}
