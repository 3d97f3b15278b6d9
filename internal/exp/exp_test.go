package exp

import (
	"runtime"
	"testing"
	"time"

	"chanos/internal/stats"
)

// q is chanos-bench -quick's setting, the one every pin records.
var q = Options{Quick: true, Seed: 42}

// TestE18ScalingContract: the fabric-scaling table, which runs only in
// full mode, so no quick pin covers it, holds gateE18c.
func TestE18ScalingContract(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size clusters in -short mode")
	}
	if err := gateE18c(t, []*stats.Table{e18Scaling(q, q.seed())}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBenchRecordsTheSeedItRan: Options with no Seed run at the
// default 42, so the artifact must say 42 and match a -seed 42 run byte
// for byte.
func TestRunBenchRecordsTheSeedItRan(t *testing.T) {
	e, _ := Find("E4")
	b := RunBench(e, Options{Quick: true})
	if b.Seed != 42 {
		t.Fatalf("RunBench with no seed recorded seed %d, want 42, the seed it ran", b.Seed)
	}
	if d := diffBench(b.JSON(), RunBench(e, q).JSON()); d != "" {
		t.Fatalf("a run with no seed differs from a seed-42 run: %s", d)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A3", "A4", "E1", "E10", "E11", "E12", "E13",
		"E14", "E15", "E16", "E17", "E18", "E19", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Find("E1"); !ok {
		t.Fatal("Find(E1) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

// TestAllExperimentsProduceTables runs the full suite at quick scale,
// the settings of chanos-bench -quick. Every experiment must have a
// committed BENCH_<id>.json and a gate; its run must emit at least one
// table with at least one row, reproduce the committed file byte for
// byte and satisfy the gate; and every goroutine the run started must
// have exited once it returns.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			want, ok := readArtifact(t, e.ID)
			if !ok {
				t.Fatalf("%s has no committed BENCH_%s.json; record it with: go run ./cmd/chanos-bench -run %s -quick -json",
					e.ID, e.ID, e.ID)
			}
			gate := gates[e.ID]
			if gate == nil {
				t.Fatalf("%s has no gate in pin_test.go's gates", e.ID)
			}
			before := runtime.NumGoroutine()
			b := RunBench(e, q)
			// A stopped worker's goroutine exits on its own schedule.
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("%s left %d goroutines running, %d before it ran", e.ID, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			tbls := b.Tables
			if len(tbls) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tbls {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tb.Title)
				}
				if len(tb.Cols) == 0 {
					t.Fatalf("%s table %q has no columns", e.ID, tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Cols) {
						t.Fatalf("%s table %q row width %d != %d cols",
							e.ID, tb.Title, len(r), len(tb.Cols))
					}
				}
			}
			if d := diffBench(b.JSON(), want); d != "" {
				t.Fatalf("%s differs from the committed %s: %s\n"+
					"if the change is meant, regenerate it with: go run ./cmd/chanos-bench -run %s -quick -json",
					e.ID, b.File(), d, e.ID)
			}
			if err := gate(t, tbls); err != nil {
				t.Fatalf("%s gate: %v", e.ID, err)
			}
		})
	}
}
