// Package exp implements the experiment suite: one function per
// experiment (E1..E19, ablations A1, A3 and A4), each returning printable
// tables that regenerate the experiment "figures" and "tables"
// (ARCHITECTURE.md's "Layer → experiments" table maps each to the layer
// it measures). The paper being a position paper has no evaluation of its
// own; every experiment here tests a quantitative claim in its prose.
// ARCHITECTURE.md's "Paper claims → experiments → gates" table maps each
// claim to its experiment, its committed BENCH_<id>.json and the gate
// predicate that checks it.
//
// The same functions back cmd/chanos-bench and the testing.B benchmarks
// in the repository root, so tables are reproducible from either.
package exp

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/telemetry"
)

// Options tunes experiment scale.
type Options struct {
	Seed uint64
	// Quick shrinks sweeps and windows so the whole suite runs in
	// seconds (used by tests and -quick).
	Quick bool
	// SnapshotSink, when set, receives the telemetry snapshots the
	// instrumented experiments (E15, E17) collect from their worlds —
	// RunBench embeds the last one in BENCH_<id>.json so the artifact
	// carries the machine's full metric state, not just the table cells
	// cut from it.
	SnapshotSink func(*telemetry.Snapshot)
	// DumpDir, when set, is where instrumented experiments write a
	// machine core dump if an invariant gate fails mid-run
	// (chanos-bench -dump-on-fail): the table row shows the violation,
	// the dump carries the machine that produced it.
	DumpDir string
}

// dumpInvariant captures c's machine into DumpDir (no-op without one).
func (o Options) dumpInvariant(c *dump.Collector, reason string) {
	if o.DumpDir == "" {
		return
	}
	d := c.Snapshot(reason)
	path := filepath.Join(o.DumpDir, d.FileName())
	if err := dump.WriteFile(path, d); err != nil {
		fmt.Printf("  dump FAILED: %v\n", err)
		return
	}
	fmt.Printf("  dump written: %s\n    reason: %s\n", path, reason)
}

// publishSnapshot hands a snapshot to the sink, if any.
func (o Options) publishSnapshot(s *telemetry.Snapshot) {
	if o.SnapshotSink != nil && s != nil {
		o.SnapshotSink(s)
	}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []*stats.Table
}

var registry []Experiment

func register(id, title string, run func(Options) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment, ordered by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Bench is one experiment run in the stable machine-readable schema of
// BENCH_<id>.json: what chanos-bench -json writes and what the committed
// artifacts are compared against.
type Bench struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Seed   uint64         `json:"seed"`
	Quick  bool           `json:"quick"`
	Tables []*stats.Table `json:"tables"`
	// Telemetry is the last measured world's final snapshot (instrumented
	// experiments only): the metric state behind the table cells.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// RunBench runs e under o and keeps the last telemetry snapshot it
// publishes.
func RunBench(e Experiment, o Options) *Bench {
	b := &Bench{ID: e.ID, Title: e.Title, Seed: o.seed(), Quick: o.Quick}
	o.SnapshotSink = func(s *telemetry.Snapshot) { b.Telemetry = s }
	b.Tables = e.Run(o)
	return b
}

// File is b's artifact name, BENCH_<id>.json.
func (b *Bench) File() string { return fmt.Sprintf("BENCH_%s.json", b.ID) }

// JSON renders b as the artifact's bytes.
func (b *Bench) JSON() []byte {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err) // plain values only
	}
	return append(buf, '\n')
}

// world is one simulated machine + runtime, the unit every experiment
// variant runs in.
type world struct {
	eng *sim.Engine
	m   *machine.Machine
	rt  *core.Runtime
}

// newWorld builds a fresh machine with the default cost model.
func newWorld(cores int, seed uint64, cfg core.Config) *world {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	cfg.Seed = seed
	rt := core.NewRuntime(m, cfg)
	return &world{eng: eng, m: m, rt: rt}
}

func (w *world) close() { w.rt.Shutdown() }

// opsPerSec converts an op count over a cycle window into simulated
// operations per second.
func (w *world) opsPerSec(ops uint64, window sim.Time) float64 {
	if window == 0 {
		return 0
	}
	return float64(ops) / w.m.Seconds(window)
}

// closedLoop runs `workers` closed-loop worker threads for `window`
// virtual cycles and returns the total iterations completed. body runs
// one iteration; placement pins worker i to a core (nil = scheduler's
// choice).
func closedLoop(w *world, workers int, window sim.Time, place func(i int) []core.SpawnOpt,
	body func(t *core.Thread, i int)) uint64 {
	counts := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		i := i
		var opts []core.SpawnOpt
		if place != nil {
			opts = place(i)
		}
		w.rt.Boot(fmt.Sprintf("worker.%d", i), func(t *core.Thread) {
			for {
				body(t, i)
				counts[i]++
			}
		}, opts...)
	}
	w.rt.RunFor(window)
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// coresSweep returns the core counts exercised by scaling experiments.
// The crossover the paper predicts sits in the "hundreds of cores", so
// even the quick sweep reaches 256.
func coresSweep(o Options) []int {
	if o.Quick {
		return []int{4, 16, 64, 256}
	}
	return []int{4, 16, 64, 256, 1024}
}
