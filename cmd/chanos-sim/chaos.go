// The chaos verbs: -chaos-schedule runs one fault schedule against the
// selected scenario and judges it on the four invariants; -chaos-seeds
// fans N seeded schedules across the standard scenario matrix and
// prints the pass/fail fold, optionally writing the matrix summary JSON
// (main_test.go pins the committed 100-seed CHAOS_MATRIX.json). Red runs
// print their (seed, config, event-count) repro triple and the
// one-command replay line, and exit non-zero.
package main

import (
	"fmt"
	"os"

	"chanos/internal/chaos"
	"chanos/internal/dump"
)

// runChaosSchedule runs one explicit schedule (or, with spec "gen", a
// generated one) against the scenario cfg selects.
func runChaosSchedule(spec string, cfg dump.Config, seed uint64, dumpDir string) int {
	if spec != "gen" {
		cfg.Chaos = spec // chaos.Run parses it, refusing a malformed one
	}
	label := "kvload"
	if world, nodes, rf := cfg.Shape(); world == dump.ScenarioCluster {
		label = fmt.Sprintf("cluster%d", nodes)
	} else if rf > 0 {
		label = "repl"
	}
	r, err := chaos.Run(chaos.Spec{Label: label, Seed: seed, Cfg: cfg, DumpDir: dumpDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return 2
	}
	fmt.Printf("chaos: %s seed=%d schedule=%q\n", label, seed, r.Schedule)
	fmt.Printf("  %d counted events, %d cycles, lifecycles %v, %d/%d clauses fired, %d keys audited\n",
		r.EventCount, r.EndCycles, r.Lifecycles, len(r.FiredClauses), len(mustParse(r.Schedule)), r.AuditKeys)
	if !r.Red() {
		fmt.Println("  GREEN: all four invariants hold")
		return 0
	}
	fmt.Printf("  RED: violations %v\n", r.Violations)
	for _, d := range r.Details {
		fmt.Printf("    %s\n", d)
	}
	if r.DumpPath != "" {
		fmt.Printf("  dump: %s\n", r.DumpPath)
		fmt.Printf("  repro: %s\n", r.ReplayCmd)
	}
	return 1
}

// chaosMatrix fans n seeded schedules across the standard matrix (row
// seed counts scale proportionally from the full tier's 100), printing
// one progress line per red seed and per finished row.
func chaosMatrix(n int, seed uint64, dumpDir string) (*chaos.Matrix, error) {
	full := chaos.DefaultRows(false)
	var total int
	for _, r := range full {
		total += r.Seeds
	}
	rows := make([]chaos.RowSpec, 0, len(full))
	for _, r := range full {
		r.Seeds = r.Seeds * n / total
		if r.Seeds < 1 {
			r.Seeds = 1
		}
		rows = append(rows, r)
	}
	return chaos.Sweep(rows, seed*0x10_0001, dumpDir, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
}

// runChaosSweep runs chaosMatrix, prints its fold and writes the
// summary JSON when outPath is set.
func runChaosSweep(n int, seed uint64, dumpDir, outPath string) int {
	m, err := chaosMatrix(n, seed, dumpDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
		return 2
	}
	fmt.Printf("chaos matrix: %d/%d green", m.Runs-m.Red, m.Runs)
	if m.Red > 0 {
		fmt.Printf(" — %d RED (by invariant: %v)", m.Red, m.ByInvariant)
	}
	fmt.Println()
	if outPath != "" {
		if err := os.WriteFile(outPath, m.JSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chanos-sim: %v\n", err)
			return 2
		}
		fmt.Printf("  matrix summary: %s\n", outPath)
	}
	if m.Red > 0 {
		return 1
	}
	return 0
}

// mustParse re-parses a schedule the harness already round-tripped.
func mustParse(spec string) chaos.Schedule {
	s, _ := chaos.Parse(spec)
	return s
}
