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
// (machine-readable; the committed ones are pinned by internal/exp tests).
package main

import (
	"flag"
	"fmt"
	"os"

	"chanos/internal/exp"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments")
		runID   = flag.String("run", "", "run one experiment by id (E1..E19, A1, A3, A4; -list shows them)")
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
	default:
		// Bare invocation (with or without -quick/-seed): the full suite.
		for _, e := range exp.All() {
			emit(e, o, *csv, *jsonOut)
		}
	}
}

func emit(e exp.Experiment, o exp.Options, csv, jsonOut bool) {
	fmt.Printf("# %s — %s\n", e.ID, e.Title)
	b := exp.RunBench(e, o)
	for _, tb := range b.Tables {
		if csv {
			tb.CSV(os.Stdout)
			fmt.Println()
		} else {
			tb.Fprint(os.Stdout)
		}
	}
	if !jsonOut {
		return
	}
	if err := os.WriteFile(b.File(), b.JSON(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chanos-bench: write %s: %v\n", b.File(), err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", b.File())
}
