package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"

	"chanos/internal/dump"
)

// benchFile is BENCHMARK.json as this test reads it.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBench(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and the metrics the command runs and emits, with the same
// units.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBench(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, command %s/%s", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}
	var n, u []string
	for _, m := range f.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range f.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

// tiny shrinks a workload to a size that runs in well under a second.
func tiny(wl workload) workload {
	if wl.cfg.Machines > 0 {
		wl.cfg.Clients, wl.cfg.Requests, wl.cfg.Keys = 12, 600, 300
	} else {
		wl.cfg.Cores, wl.cfg.Clients, wl.cfg.Requests = 16, 32, 3000
		wl.cfg.Keys = min(wl.cfg.Keys, 1024)
	}
	return wl
}

// TestWorkloadsTiny runs every workload at a tiny size, twice untraced
// and twice traced at one seed, and checks what every run must hold:
// the outputs are correct and nothing failed; exactly the named metrics
// are emitted, end-to-end ones never 0; the same seed repeats the
// simulated numbers exactly and the host allocation count to 0.1%; and
// the traced run's segments sum to each request's end-to-end cycles (a
// traced run is incorrect otherwise).
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		wl := tiny(w)
		t.Run(wl.name, func(t *testing.T) {
			o := opts{seed: 7, outDir: t.TempDir()}
			run := func(traced bool, defs []metricDef) result {
				o.traced = traced
				res, _ := measure(&wl, o, io.Discard)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, %d named", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("traced=%v: %s missing or with unit %q", traced, d.name, v.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, v.Value)
					}
				}
				return res
			}
			a, b := run(false, endToEnd), run(false, endToEnd)
			for _, name := range []string{"sim_ops_per_sec", "sim_p50_us", "sim_p99_us", "sim_p999_us"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			// The Go runtime's own allocations (channel wait records and
			// the like) vary a little with GC timing, so allocs/op repeats
			// to a hair, not exactly.
			if x, y := a.Metrics["host_allocs_per_op"].Value, b.Metrics["host_allocs_per_op"].Value; math.Abs(x-y) > 0.001*x {
				t.Errorf("host_allocs_per_op differs by more than 0.1%% between two runs of one seed: %v, %v", x, y)
			}
			ta, tb := run(true, perLayer), run(true, perLayer)
			if ta.Metrics["sim.events_per_op"] != tb.Metrics["sim.events_per_op"] {
				t.Errorf("sim.events_per_op differs between two traced runs of one seed")
			}
			if d := ta.Metrics["trace.fired_delta"].Value; d != 0 {
				t.Errorf("trace.fired_delta = %v, want 0", d)
			}
		})
	}
}

// TestFleetMatchesPool checks that the bench's fleet is still a copy
// of cluster.Pool as ClusterWorld.Run drives it: at one seed, both fire
// the same number of events and get the same number of responses. A
// difference means cluster.Pool or ClusterWorld.Run changed and fleet
// and driveFleet in cluster.go must follow.
func TestFleetMatchesPool(t *testing.T) {
	cfg := tiny(*findWorkload("cluster-3x2")).cfg
	ref := dump.BuildCluster(7, cfg)
	defer ref.Close()
	rr := ref.Run()

	w := bootCluster(7, cfg)
	defer w.Close()
	f, _, stalled := driveFleet(w, 7, cfg.Requests, 1)

	if rr.Stalled || stalled {
		t.Fatalf("stalled: ClusterWorld.Run %v, fleet %v", rr.Stalled, stalled)
	}
	if got, want := w.Cl.Eng.Fired(), ref.Cl.Eng.Fired(); got != want {
		t.Errorf("fleet drive fired %d events, ClusterWorld.Run %d", got, want)
	}
	if f.ops != rr.Responses || f.errs != rr.Errs {
		t.Errorf("fleet got %d responses and %d errors, ClusterWorld.Run %d and %d", f.ops, f.errs, rr.Responses, rr.Errs)
	}
}

func TestVerdict(t *testing.T) {
	s := func(med, lo, hi float64) *series { return &series{Median: med, Min: lo, Max: hi} }
	for _, c := range []struct {
		a, b   *series
		higher bool
		want   string
	}{
		{s(100, 99, 101), s(100.5, 100, 101), false, "same"},
		{s(100, 99, 101), s(110, 109, 111), false, "worse"},
		{s(100, 99, 101), s(90, 89, 91), false, "better"},
		{s(100, 99, 101), s(90, 89, 91), true, "worse"},
		{s(100, 80, 120), s(104, 90, 120), false, "unresolved"},
		{s(100, 95, 120), s(80, 70, 90), false, "better"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, 0.05); got != c.want {
			t.Errorf("verdict(%+v, %+v, higher=%v) = %s, want %s", *c.a, *c.b, c.higher, got, c.want)
		}
	}
}
