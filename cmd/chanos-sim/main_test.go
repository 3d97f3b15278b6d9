package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chanos/internal/dump"
)

// The CLI gates: each test drives the same entry point, with the same
// arguments, as the chanos-sim command line in its comment, and asserts
// exit codes and dump files. Flags left out take their defaults, which
// the configs spell out (-cores 64, -clients 16).

// chanos-sim -scenario cluster -machines 3 -rf 2 -cores 8 -requests 200 -keys 120 -seed 9
func TestClusterScenarioLosesNothing(t *testing.T) {
	cfg := dump.Config{Cores: 8, Clients: 16, Requests: 200, Keys: 120, Machines: 3, RF: 2}
	if code := runScenario(dump.ScenarioCluster, cfg, 9, ""); code != 0 {
		t.Fatalf("9-machine cluster scenario exited %d: it stalled, broke conservation, or errored or lost requests", code)
	}
}

// chanos-sim -scenario kvload -cores 8 -clients 8 -requests 400 -keys 2000 -readpct 5 -logblocks 2 -seed 7
//
// Two log blocks per shard cannot hold 2000 keys: the store refuses
// writes with no fault injected, and the run must say so in its exit
// code, not only in its printed error count.
func TestScenarioExitsNonZeroOnRefusedWrites(t *testing.T) {
	cfg := dump.Config{Cores: 8, Clients: 8, Requests: 400, Keys: 2000, ReadPct: 5, LogBlocks: 2}
	if code := runScenario(dump.ScenarioKVLoad, cfg, 7, ""); code != 1 {
		t.Fatalf("a run whose writes were refused exited %d, want 1", code)
	}
}

// chanos-sim -scenario kvload -cores 8 -clients 8 -requests 300 -keys 64 -logblocks 64 -seed 7 -fail-writes 1 -dump-on-fail DIR
// chanos-sim -replay DIR/<dump> -redump DIR/redump.json
//
// One injected log-device write failure fail-stops the shard and writes
// a valid core dump; its replay halts at the recorded event with every
// machine byte-equal to the dump.
func TestFailStopDumpReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	cfg := dump.Config{Cores: 8, Clients: 8, Requests: 300, Keys: 64, LogBlocks: 64, FailWrites: 1}
	if code := runScenario(dump.ScenarioKVLoad, cfg, 7, dir); code != 0 {
		t.Fatalf("injected write failure run exited %d", code)
	}
	replayExactly(t, dir)
}

// chanos-sim -chaos-schedule cy:4000000:bitrot:0:3 -seed 7 -shards 2 -clients 12 -requests 240 -readpct 60 -keys 96 -logblocks 64 -dump-on-fail DIR
// chanos-sim -replay DIR/<dump> -redump DIR/redump.json
//
// A deliberately unsound schedule (silent index bitrot late in the run)
// must trip the acked-loss invariant, exit 1 and write a dump whose
// replay halts at the exact recorded event with byte-equal state.
func TestRedChaosScheduleDumpsAndReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := dump.Config{Cores: 64, Shards: 2, Clients: 12, Requests: 240, ReadPct: 60, Keys: 96, LogBlocks: 64}
	if code := runChaosSchedule("cy:4000000:bitrot:0:3", cfg, 7, dir); code != 1 {
		t.Fatalf("the bitrot schedule exited %d, want 1 (red)", code)
	}
	if d := replayExactly(t, dir); d.Reason != "chaos: acked-loss" {
		t.Fatalf("the bitrot red dumped %q, want it to name acked-loss", d.Reason)
	}
}

// chanos-sim -scenario kvload -replicas 2 -fail-writes 1 -dump-on-fail DIR
// chanos-sim -scenario kvload -machines 3
// chanos-sim -replicas 2 -chaos-schedule cy:1000000:kill-replica:0:1
//
// A kvload world is one serving machine with at most one replica
// machine. Each of these asks for more, so each exits 2 before booting
// anything, says which flag is wrong, and writes no dump.
func TestKVLoadRefusesImpossibleConfigs(t *testing.T) {
	for _, c := range []struct {
		name, flag string
		run        func(dir string) int
	}{
		{"replicas-dump", "-replicas 2", func(dir string) int {
			cfg := dump.Config{Cores: 64, Clients: 16, Replicas: 2, FailWrites: 1}
			return runScenario(dump.ScenarioKVLoad, cfg, 1, dir)
		}},
		{"machines", "-machines 3", func(string) int {
			cfg := dump.Config{Cores: 64, Clients: 16, Machines: 3}
			return runScenario(dump.ScenarioKVLoad, cfg, 1, "")
		}},
		{"replicas-chaos", "-replicas 2", func(string) int {
			cfg := dump.Config{Cores: 64, Clients: 16, Replicas: 2}
			return runChaosSchedule("cy:1000000:kill-replica:0:1", cfg, 1, "")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stderr := stderrOf(t, func() int { return c.run(dir) })
			if code != 2 {
				t.Fatalf("exited %d, want 2", code)
			}
			if !strings.Contains(stderr, c.flag) {
				t.Fatalf("message does not name %s: %q", c.flag, stderr)
			}
			if dumps, _ := filepath.Glob(filepath.Join(dir, "*.dump.json")); len(dumps) > 0 {
				t.Fatalf("refused run wrote dumps: %v", dumps)
			}
		})
	}
}

// stderrOf runs f with os.Stderr captured and returns f's exit code and
// what it printed there (a few lines at most: the pipe is read after f
// returns).
func stderrOf(t *testing.T, f func() int) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	saved := os.Stderr
	os.Stderr = w
	code := f()
	os.Stderr = saved
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// replayExactly validates the one dump in dir, replays it with a
// re-dump, and requires the re-dump to equal the dump.
func replayExactly(t *testing.T, dir string) *dump.Dump {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.dump.json"))
	if len(paths) != 1 {
		t.Fatalf("run wrote %d dumps, want 1: %v", len(paths), paths)
	}
	d, err := dump.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("dump fails structural validation: %v", bad)
	}
	redump := filepath.Join(dir, "redump.json")
	if code := replayDump(paths[0], redump); code != 0 {
		t.Fatalf("replay exited %d", code)
	}
	if stray, _ := filepath.Glob("*.dump.json"); len(stray) > 0 {
		t.Errorf("replay wrote a dump into the working directory: %v", stray)
	}
	rd, err := dump.ReadFile(redump)
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Equal(d, rd) {
		t.Fatalf("re-dump diverges from the dump:\n%v", dump.Diff(d, rd))
	}
	return d
}

// chanos-sim -chaos-seeds 100 -chaos-out CHAOS_MATRIX.json
//
// The 100-seed matrix is all green and reproduces the committed
// CHAOS_MATRIX.json byte for byte.
func TestChaosMatrixMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed chaos sweep in -short mode")
	}
	m, err := chaosMatrix(100, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if m.Red > 0 {
		t.Errorf("chaos matrix: %d of %d runs red (by invariant: %v)", m.Red, m.Runs, m.ByInvariant)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "CHAOS_MATRIX.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMatrix(m.JSON(), want); d != "" {
		t.Fatalf("chaos matrix differs from the committed CHAOS_MATRIX.json: %s\n"+
			"if the change is meant, regenerate it with: go run ./cmd/chanos-sim -chaos-seeds 100 -chaos-out CHAOS_MATRIX.json", d)
	}
}

// TestMatrixDiffNamesTheEditedField: a hand edit to one field of the
// committed matrix is reported by row label and field name.
func TestMatrixDiffNamesTheEditedField(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "CHAOS_MATRIX.json"))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(`"clauses_fired": 62`), []byte(`"clauses_fired": 61`), 1)
	if bytes.Equal(edited, raw) {
		t.Fatal("the committed matrix has no repl row firing 62 clauses to edit")
	}
	if got, want := diffMatrix(raw, edited), `row "repl" (#2), field "clauses_fired": got 62, committed 61`; got != want {
		t.Fatalf("diff reports\n  %s\nwant\n  %s", got, want)
	}
	if d := diffMatrix(raw, raw); d != "" {
		t.Fatalf("a matrix differs from itself: %s", d)
	}
}

// diffMatrix returns "" when got and want are byte-identical matrix
// summaries, else the first differing row (by label) and field, or the
// first differing top-level field.
func diffMatrix(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	gTop, g, err := parseMatrix(got)
	if err != nil {
		return fmt.Sprintf("fresh matrix does not parse: %v", err)
	}
	wTop, w, err := parseMatrix(want)
	if err != nil {
		return fmt.Sprintf("committed matrix does not parse: %v", err)
	}
	for i := 0; i < len(g) || i < len(w); i++ {
		switch {
		case i >= len(w):
			return fmt.Sprintf("row %s (#%d): missing from committed file", g[i]["label"], i+1)
		case i >= len(g):
			return fmt.Sprintf("committed row %s (#%d): not produced", w[i]["label"], i+1)
		}
		if d := diffFields(g[i], w[i]); d != "" {
			return fmt.Sprintf("row %s (#%d), %s", g[i]["label"], i+1, d)
		}
	}
	if d := diffFields(gTop, wTop); d != "" {
		return d
	}
	return "bytes differ outside the fields"
}

// parseMatrix splits a matrix summary into its rows and its other
// top-level fields, every value kept raw.
func parseMatrix(b []byte) (top map[string]json.RawMessage, rows []map[string]json.RawMessage, err error) {
	if err = json.Unmarshal(b, &top); err == nil {
		err = json.Unmarshal(top["rows"], &rows)
		delete(top, "rows")
	}
	return top, rows, err
}

// diffFields names the first (by name) field whose compacted JSON
// differs between g and w.
func diffFields(g, w map[string]json.RawMessage) string {
	names := make([]string, 0, len(g)+len(w))
	for k := range g {
		names = append(names, k)
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	compact := func(m json.RawMessage) string {
		var b bytes.Buffer
		if json.Compact(&b, m) != nil {
			return "<none>"
		}
		return b.String()
	}
	for _, k := range names {
		if gv, wv := compact(g[k]), compact(w[k]); gv != wv {
			return fmt.Sprintf("field %q: got %s, committed %s", k, gv, wv)
		}
	}
	return ""
}
