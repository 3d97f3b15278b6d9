// Command chanos-bench regenerates the experiment tables and figure
// series (ARCHITECTURE.md's "Layer → experiments" table maps each to
// the layer it measures).
//
// Usage:
//
//	chanos-bench -list
//	chanos-bench -run E1 [-seed 7] [-quick] [-csv] [-json]
//	chanos-bench [-quick]    (full suite)
//
// -json additionally writes each experiment's tables to BENCH_<id>.json
// (machine-readable, for CI artifacts and plotting).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"chanos/internal/exp"
	"chanos/internal/stats"
	"chanos/internal/telemetry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments")
		runID   = flag.String("run", "", "run one experiment by id (E1..E19, A1..A4; -list shows them)")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "reduced sweeps and windows")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = flag.Bool("json", false, "also write BENCH_<id>.json per experiment")
		dumpDir = flag.String("dump-on-fail", "", "write a machine core dump into this directory if an experiment's invariant gate fails")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "chanos-bench: unexpected argument %q (did you mean -run %s?)\n",
			flag.Arg(0), flag.Arg(0))
		os.Exit(2)
	}

	o := exp.Options{Seed: *seed, Quick: *quick, DumpDir: *dumpDir}

	switch {
	case *list:
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
	case *runID != "":
		e, ok := exp.Find(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "chanos-bench: unknown experiment %q (try -list)\n", *runID)
			os.Exit(1)
		}
		emit(e, o, *csv, *jsonOut)
	case *all:
		fallthrough
	default:
		// -all, or bare invocation (with or without -quick/-seed): the
		// full suite.
		for _, e := range exp.All() {
			emit(e, o, *csv, *jsonOut)
		}
	}
}

func emit(e exp.Experiment, o exp.Options, csv, jsonOut bool) {
	fmt.Printf("# %s — %s\n", e.ID, e.Title)
	// Instrumented experiments hand over telemetry snapshots as they run;
	// the last one — the final state of the last world measured — rides
	// along in the JSON artifact.
	var snap *telemetry.Snapshot
	o.SnapshotSink = func(s *telemetry.Snapshot) { snap = s }
	tables := e.Run(o)
	for _, tb := range tables {
		if csv {
			tb.CSV(os.Stdout)
			fmt.Println()
		} else {
			tb.Fprint(os.Stdout)
		}
	}
	if jsonOut {
		writeJSON(e, o, tables, snap)
	}
}

// benchJSON is the stable machine-readable schema behind -json.
type benchJSON struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Seed   uint64      `json:"seed"`
	Quick  bool        `json:"quick"`
	Tables []tableJSON `json:"tables"`
	// Telemetry is the final telemetry snapshot of the experiment's last
	// measured world (present for instrumented experiments): the full
	// per-service metric state behind the table cells.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

type tableJSON struct {
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
}

func writeJSON(e exp.Experiment, o exp.Options, tables []*stats.Table, snap *telemetry.Snapshot) {
	out := benchJSON{ID: e.ID, Title: e.Title, Seed: o.Seed, Quick: o.Quick, Telemetry: snap}
	for _, tb := range tables {
		out.Tables = append(out.Tables, tableJSON{
			Title: tb.Title, Cols: tb.Cols, Rows: tb.Rows, Notes: tb.Notes,
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-bench: marshal %s: %v\n", e.ID, err)
		os.Exit(1)
	}
	name := fmt.Sprintf("BENCH_%s.json", e.ID)
	if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chanos-bench: write %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", name)
}
