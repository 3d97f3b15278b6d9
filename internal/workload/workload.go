// Package workload provides deterministic workload generators for the
// experiment suite: weighted operation mixes and Zipf object popularity,
// both driven by seeded RNG streams.
package workload

import "chanos/internal/sim"

// Mix is a weighted discrete distribution over named operations.
type Mix struct {
	names   []string
	weights []float64
	total   float64
}

// Add registers an operation with a relative weight.
func (m *Mix) Add(name string, weight float64) *Mix {
	if weight < 0 {
		panic("workload: negative mix weight")
	}
	m.names = append(m.names, name)
	m.weights = append(m.weights, weight)
	m.total += weight
	return m
}

// Pick draws an operation index according to the weights.
func (m *Mix) Pick(rng *sim.RNG) int {
	if m.total == 0 {
		panic("workload: empty mix")
	}
	u := rng.Float64() * m.total
	acc := 0.0
	for i, w := range m.weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(m.weights) - 1
}

// Name returns the name of operation i.
func (m *Mix) Name(i int) string { return m.names[i] }

// MetadataMix is the standard file-system metadata workload used by E5:
// lookup-heavy with a write tail, loosely following published
// fileserver traces.
func MetadataMix() *Mix {
	m := &Mix{}
	m.Add("lookup", 40)
	m.Add("stat", 25)
	m.Add("read", 20)
	m.Add("write", 10)
	m.Add("create", 5)
	return m
}

// Popularity draws object ids with Zipf(1.0) skew over n objects — a few
// hot directories/files take most of the traffic.
type Popularity struct {
	zipf *sim.Zipf
	perm []int // shuffled identity so rank 0 is not always object 0
}

// NewPopularity builds a popularity sampler over n objects.
func NewPopularity(rng *sim.RNG, n int, skew float64) *Popularity {
	return &Popularity{zipf: sim.NewZipf(rng, n, skew), perm: rng.Perm(n)}
}

// Next draws an object id.
func (p *Popularity) Next() int { return p.perm[p.zipf.Next()] }
