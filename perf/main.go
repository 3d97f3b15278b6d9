// Command perf is chanOS's benchmark: five workloads driven against the
// unmodified program through its public APIs, every end-to-end metric
// printed by name with its unit, outputs checked, and — traced — a
// per-layer split of where the cycles and the host time go.
//
// From the repository root:
//
//	bash perf/bench.sh                          all workloads, 3 fresh-process reps each
//	bash perf/bench.sh -trace 1                 ... plus one traced run per workload
//	bash perf/bench.sh -json out.json           ... and write the set
//	bash perf/bench.sh -compare a.json b.json   judge b against a with BENCHMARK.json's bounds
//	bash perf/bench.sh -workload kv-read-hot -seed 7 -seconds 10 -trace 0
//
// The last form — BENCHMARK.json's command — runs one workload in this
// process for at least the given time and prints its result as one JSON
// line, the last line of standard output. See perf/README.md for the
// metrics, the workloads and why each exists.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"chanos/internal/trace"
)

func main() {
	name := flag.String("workload", "", "run one workload in this process and print its result line")
	seed := flag.Uint64("seed", 7, "seed for every generator")
	seconds := flag.Float64("seconds", 0, "with -workload: keep repeating until this long has passed")
	traceFlag := flag.Int("trace", 0, "1 = report the per-layer metrics from a traced run")
	reps := flag.Int("reps", 3, "fresh-process repetitions per workload")
	jsonOut := flag.String("json", "", "write the set's results to this file")
	compare := flag.Bool("compare", false, "compare two -json files: perf -compare A.json B.json")
	out := flag.String("out", ".bench_build/out", "directory for trace files")
	flag.Parse()

	o := opts{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *out}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: perf -compare A.json B.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(runOne(*name, o))
	default:
		os.Exit(runSet(o, *reps, *jsonOut))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(2)
}

// runOne measures one workload in this process and prints its result
// as the last line of standard output; progress goes to standard error.
//
// It measures at GOMAXPROCS 1. The simulator runs one goroutine at a
// time, so a second P only adds cross-CPU wakeups at every handoff. On a
// shared 2-vCPU VM their cost swings with the neighbours' load: at
// GOMAXPROCS 2 a drive takes ~30% longer and set-up time spreads about
// 1.5 times as widely from run to run.
func runOne(name string, o opts) int {
	runtime.GOMAXPROCS(1)
	wl := findWorkload(name)
	if wl == nil {
		fatalf("unknown workload %q", name)
	}
	res, spans := measure(wl, o, os.Stderr)
	if spans != nil {
		path := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.json", name, o.seed))
		if err := writeTrace(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			res.Correct = false
		} else {
			fmt.Fprintf(os.Stderr, "%s: %d sampled spans in %s\n", name, len(spans), path)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes spans as a Chrome trace-event array.
func writeTrace(path string, spans []trace.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// resultSet is what -json writes and -compare reads: every workload's
// repetitions of every end-to-end metric, and its traced per-layer
// metrics when the set was traced.
type resultSet struct {
	Seed      uint64               `json:"seed"`
	Reps      int                  `json:"reps"`
	Host      string               `json:"host"`
	Workloads map[string]*setEntry `json:"workloads"`
}

type setEntry struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]*series     `json:"metrics"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
}

// series is one metric over a set's repetitions.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// runSet runs every workload reps times, each repetition in a fresh
// child process (this binary with -workload) so heap, RSS and GC state
// never leak from one into the next, and prints each metric's median
// with its min and max.
func runSet(o opts, reps int, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	s := resultSet{Seed: o.seed, Reps: reps, Workloads: map[string]*setEntry{},
		Host: fmt.Sprintf("%s/%s, %d CPUs, measured at GOMAXPROCS 1, %s", runtime.GOOS, runtime.GOARCH,
			runtime.NumCPU(), runtime.Version())}
	code := 0
	for _, wl := range workloads {
		e := &setEntry{Correct: true, Metrics: map[string]*series{}}
		s.Workloads[wl.name] = e
		runs := make([]bool, reps)
		if o.traced {
			runs = append(runs, true)
		}
		for _, traced := range runs {
			res, err := child(exe, wl.name, o, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s: %v\n", wl.name, err)
				e.Correct = false
				continue
			}
			e.Correct = e.Correct && res.Correct
			e.Attempted += res.Attempted
			e.Failed += res.Failed
			if traced {
				e.Layers = res.Metrics
				continue
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; ok {
					sr := e.Metrics[d.name]
					if sr == nil {
						sr = &series{Unit: d.unit}
						e.Metrics[d.name] = sr
					}
					sr.Values = append(sr.Values, v.Value)
				}
			}
		}
		for _, sr := range e.Metrics {
			sr.Median, sr.Min, sr.Max = median(sr.Values), slices.Min(sr.Values), slices.Max(sr.Values)
		}
		printEntry(wl.name, e)
		if !e.Correct {
			code = 1
		}
	}
	fmt.Printf("set: %d workloads x %d reps at seed %d in %.1f s (%s)\n",
		len(workloads), reps, o.seed, time.Since(start).Seconds(), s.Host)
	if jsonOut != "" {
		b, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	return code
}

// child runs one fresh-process repetition and parses its result line.
func child(exe, name string, o opts, traced bool) (result, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-trace", tr, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return res, nil
}

func printEntry(name string, e *setEntry) {
	verdict := "ok"
	if !e.Correct {
		verdict = "INVALID"
	}
	fmt.Printf("== %s: %s, %d attempted, %d failed\n", name, verdict, e.Attempted, e.Failed)
	for _, d := range endToEnd {
		if sr := e.Metrics[d.name]; sr != nil {
			fmt.Printf("  %-22s %14.6g  [%.6g .. %.6g]  %s\n", d.name, sr.Median, sr.Min, sr.Max, d.unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := e.Layers[d.name]; ok {
			fmt.Printf("  %-32s %14.6g  %s\n", d.name, v.Value, d.unit)
		}
	}
}
