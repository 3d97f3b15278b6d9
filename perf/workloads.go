package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"

	"chanos/internal/dump"
	"chanos/internal/trace"
)

// workload is one named traffic mix. All are closed loop: a client
// sends its next request only after the previous one is answered. Why
// each exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	cfg  dump.Config
}

// The kv workloads run one 64-core machine with 256-byte values and
// 50k requests per world; a run pools three worlds, so p99.9 has 150
// samples beyond it. Three settings differ from the obvious ones because
// the obvious ones make the tail swing with the seed by more than the
// bounds allow: with a 512-block log, write-churn's few compaction
// passes land differently in every run (p99 spread 26% over ten seeds;
// 64 blocks gives ~100 passes per world and 3%); at 128 clients the
// quorum path saturates (p99.9 spread 25%; 64 clients, 9%); and at 48
// clients the cluster's disks do (p99 spread 14% with two worlds pooled;
// 24 clients, 5% with one).
var workloads = []workload{
	{name: "kv-read-hot", cfg: dump.Config{Cores: 64, Clients: 128, Requests: 50_000,
		ReadPct: 95, Keys: 4096, ValBytes: 256}},
	{name: "kv-write-churn", cfg: dump.Config{Cores: 64, Clients: 128, Requests: 50_000,
		ReadPct: 5, Keys: 4096, ValBytes: 256, LogBlocks: 64}},
	{name: "kv-read-cold", cfg: dump.Config{Cores: 64, Clients: 128, Requests: 50_000,
		ReadPct: 95, Keys: 32768, ValBytes: 256}},
	{name: "kv-quorum", cfg: dump.Config{Cores: 64, Clients: 64, Requests: 50_000,
		ReadPct: 70, Keys: 4096, ValBytes: 256, Replicas: 1}},
	{name: "cluster-3x2", cfg: dump.Config{Machines: 3, RF: 2, Cores: 8, Shards: 2, Clients: 24,
		Requests: 25_000, ReadPct: 50, Keys: 3000, ValBytes: 128}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opts are one run's settings.
type opts struct {
	seed    uint64
	seconds float64 // measure for at least this long
	traced  bool
	outDir  string // trace files
}

// pool is how many worlds an untraced run pools the simulated samples
// of: one world's tail moves with its seed by more than the bounds
// allow, three pooled worlds' tail does not.
const pool = 3

// poolSeed is the seed of the k-th pooled world of a run at seed.
func poolSeed(seed uint64, k int) uint64 { return seed + uint64(k)*1_000_003 }

// rep runs one fresh-world repetition.
func (wl *workload) rep(seed uint64, traced bool) *rep {
	runtime.GC() // start every repetition from the same heap state
	switch {
	case wl.cfg.Machines > 0:
		return runCluster(wl, seed, traced)
	case traced:
		return runTwin(wl, seed)
	default:
		return runSolo(wl, seed)
	}
}

// setupOnly boots one world at seed up to its first request and returns
// the host seconds that took.
func (wl *workload) setupOnly(seed uint64) float64 {
	runtime.GC()
	switch {
	case wl.cfg.Machines > 0:
		t0 := time.Now()
		w := bootCluster(seed, wl.cfg)
		defer w.Close()
		return time.Since(t0).Seconds()
	default:
		cfg := wl.cfg
		cfg.Requests = 1 // World.Run stops at the first response
		return runSolo(&workload{cfg: cfg}, seed).setup
	}
}

// measure runs fresh-world repetitions of wl and folds them into the
// result line.
//
// Untraced, repetition k runs at poolSeed(seed, k mod pool); it keeps
// going past the first pool repetitions until o.seconds have passed.
// The simulated numbers pool the latencies of the first pool worlds,
// which keeps them exact for a seed. Every later repetition must
// simulate exactly what the first one at its seed did. Host numbers are
// medians over all repetitions.
//
// Traced, repetitions alternate untraced and traced at the seed itself,
// at least one of each, and the per-layer metrics are the first traced
// one's.
func measure(wl *workload, o opts, log io.Writer) (result, []trace.Event) {
	start := time.Now()
	worlds := pool
	if o.traced {
		worlds = 1
	}
	var plain, traced []*rep
	for {
		t := o.traced && len(plain) > len(traced)
		seed := poolSeed(o.seed, len(plain)%worlds)
		r := wl.rep(seed, t)
		kind := "untraced"
		if t {
			kind, traced = "traced", append(traced, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(log, "%s seed %d %s rep: setup %.3fs, drive %.3fs, %d ops, %d failed, %d events\n",
			wl.name, seed, kind, r.setup, r.wall, r.ops, r.failed, r.fired)
		if len(plain) >= worlds && (!o.traced || len(traced) > 0) && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range append(plain, traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.Correct = false
			fmt.Fprintf(log, "%s: %s\n", wl.name, p)
		}
	}
	for k, r := range plain[worlds:] {
		if ref := plain[k%worlds]; r.fired != ref.fired || !slices.Equal(r.lat, ref.lat) {
			res.Correct = false
			fmt.Fprintf(log, "%s: two untraced repetitions of seed %d simulated different runs\n",
				wl.name, poolSeed(o.seed, k%worlds))
		}
	}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("unknown metric " + name)
	}

	first := plain[0]
	if !o.traced {
		cps := float64(first.cyclesPerSec)
		var lat []uint64
		var ops, cycles float64
		for _, r := range plain[:pool] {
			lat = append(lat, r.lat...)
			ops += float64(r.ops)
			cycles += float64(r.simCycles)
		}
		lat = sortedCopy(lat)
		us := cps / 1e6
		var allocs, setups []float64
		for _, r := range plain {
			allocs = append(allocs, ratio(float64(r.mallocs), float64(r.ops)))
			setups = append(setups, r.setup)
		}
		// Set-up is short, so the host's noise is a large share of it: a
		// run of fewer than five worlds boots more, without driving them,
		// to report a median of five.
		for len(setups) < 5 {
			setups = append(setups, wl.setupOnly(o.seed))
		}
		set(endToEnd, "sim_ops_per_sec", ratio(ops, cycles/cps))
		set(endToEnd, "sim_p50_us", float64(pct(lat, 50))/us)
		set(endToEnd, "sim_p99_us", float64(pct(lat, 99))/us)
		set(endToEnd, "sim_p999_us", float64(pct(lat, 99.9))/us)
		set(endToEnd, "host_allocs_per_op", median(allocs))
		set(endToEnd, "max_rss_mb", maxRSSMB())
		set(endToEnd, "setup_s", median(setups))
		return res, nil
	}

	t := traced[0]
	for _, d := range perLayer {
		set(perLayer, d.name, t.layers[d.name])
	}
	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, r.wall)
	}
	for _, r := range traced {
		tw = append(tw, r.wall)
	}
	set(perLayer, "sim.events_per_op", ratio(float64(t.fired), float64(t.ops)))
	set(perLayer, "sim.host_ns_per_event", ratio(1e9*median(pw), float64(first.fired)))
	set(perLayer, "go.heap_bytes_per_op", ratio(float64(t.heapBytes), float64(t.ops)))
	set(perLayer, "trace.fired_delta", float64(int64(t.fired)-int64(first.fired)))
	set(perLayer, "trace.host_overhead_pct", 100*(median(tw)/median(pw)-1))
	if t.segSums != nil && !slices.Equal(t.segSums, first.lat) {
		res.Correct = false
		fmt.Fprintf(log, "%s: traced segments do not sum to the untraced end-to-end cycles of every request\n", wl.name)
	}
	return res, t.spans
}

// maxRSSMB is this process's peak resident set, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
