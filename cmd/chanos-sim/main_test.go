package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"chanos/internal/dump"
)

// TestMain runs main instead of the tests when run re-executes this
// test binary with "main" as its first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "main" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs chanos-sim with args in a child process, flag parsing
// included, and returns its stdout, its stderr and its exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0], append([]string{"main"}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// The CLI gates: each test runs the chanos-sim command line in its
// comment through run, and asserts exit codes, stdout and dump files.

// world is the config every golden run shares: 64 cores, 128 clients
// and 4096 keys at 70% reads, seed 7.
var world = []string{"-cores", "64", "-clients", "128", "-keys", "4096", "-readpct", "70", "-seed", "7"}

// chanos-sim -scenario kvload <world> -requests 2000 > testdata/solo.golden
// chanos-sim -scenario kvload <world> -replicas 1 -replica-reads -requests 4000 > testdata/replica-reads.golden
// chanos-sim -scenario cluster <world> -machines 3 -rf 2 -requests 3000 > testdata/cluster.golden
// chanos-sim -scenario kvload <world> -requests 2000 -stats-every 0.1 > testdata/stats-every.golden
//
// The full reports of a solo, a replica-read, a 3x2 cluster and a live
// stats run, byte for byte. A change that means to move them
// regenerates the goldens with `go run ./cmd/chanos-sim` and these
// arguments (<world> is the world variable above), and says why.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("four full scenario runs")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"solo.golden", []string{"-scenario", "kvload", "-requests", "2000"}},
		{"replica-reads.golden", []string{"-scenario", "kvload", "-replicas", "1", "-replica-reads", "-requests", "4000"}},
		{"cluster.golden", []string{"-scenario", "cluster", "-machines", "3", "-rf", "2", "-requests", "3000"}},
		{"stats-every.golden", []string{"-scenario", "kvload", "-requests", "2000", "-stats-every", "0.1"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := wantExit(t, 0, append(tc.args, world...)...); got != string(want) {
				t.Errorf("chanos-sim %v differs from testdata/%s:\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
}

// chanos-sim -scenario cluster -machines 3 -rf 2 -cores 8 -requests 200 -keys 120 -seed 9
func TestClusterScenarioLosesNothing(t *testing.T) {
	wantExit(t, 0, "-scenario", "cluster", "-machines", "3", "-rf", "2", "-cores", "8", "-requests", "200", "-keys", "120", "-seed", "9")
}

// chanos-sim -scenario kvload -cores 8 -clients 8 -requests 400 -keys 2000 -readpct 5 -logblocks 2 -seed 7
//
// Two log blocks per shard cannot hold 2000 keys: the store refuses
// writes with no fault injected, and the run must say so in its exit
// code, not only in its printed error count.
func TestScenarioExitsNonZeroOnRefusedWrites(t *testing.T) {
	wantExit(t, 1, "-scenario", "kvload", "-cores", "8", "-clients", "8", "-requests", "400", "-keys", "2000", "-readpct", "5", "-logblocks", "2", "-seed", "7")
}

// chanos-sim -scenario kvload -cores 8 -clients 8 -requests 300 -keys 64 -logblocks 64 -seed 7 -fail-writes 1 -dump-on-fail DIR
// chanos-sim -replay DIR/<dump> -redump DIR/redump.json
//
// One injected log-device write failure fail-stops the shard and writes
// a valid core dump; its replay halts at the recorded event with every
// machine byte-equal to the dump.
func TestFailStopDumpReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	wantExit(t, 0, "-scenario", "kvload", "-cores", "8", "-clients", "8", "-requests", "300", "-keys", "64", "-logblocks", "64", "-seed", "7", "-fail-writes", "1", "-dump-on-fail", dir)
	replayExactly(t, dir)
}

// chanos-sim -replay DIR/<dump>
//
// A dump whose captures disagree with its own config is refused before
// anything boots: exit 1, with each problem named on stderr.
func TestReplayRefusesAnInvalidDump(t *testing.T) {
	w := dump.Build(7, dump.Config{Requests: 50})
	w.Run()
	d := w.C.Snapshot("on demand")
	w.Close()
	d.Config.Scenario = dump.ScenarioCluster
	d.Machines[0].Telemetry = nil
	path := filepath.Join(t.TempDir(), d.FileName())
	if err := dump.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "-replay", path)
	if code != 1 {
		t.Fatalf("-replay of an invalid dump exited %d, want 1; stderr: %s", code, stderr)
	}
	for _, want := range []string{"config has 3 machines but machines section has 1", "machine 0: telemetry section missing"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not name %q:\n%s", want, stderr)
		}
	}
}

// chanos-sim -chaos-schedule cy:4000000:bitrot:0:3 -seed 7 -shards 2 -clients 12 -requests 240 -readpct 60 -keys 96 -logblocks 64 -dump-on-fail DIR
// chanos-sim -replay DIR/<dump> -redump DIR/redump.json
//
// A deliberately unsound schedule (silent index bitrot late in the run)
// must trip the acked-loss invariant, exit 1 and write a dump whose
// replay halts at the exact recorded event with byte-equal state.
func TestRedChaosScheduleDumpsAndReplays(t *testing.T) {
	dir := t.TempDir()
	wantExit(t, 1, "-chaos-schedule", "cy:4000000:bitrot:0:3", "-seed", "7", "-shards", "2", "-clients", "12", "-requests", "240", "-readpct", "60", "-keys", "96", "-logblocks", "64", "-dump-on-fail", dir)
	if d := replayExactly(t, dir); d.Reason != "chaos: acked-loss" {
		t.Fatalf("the bitrot red dumped %q, want it to name acked-loss", d.Reason)
	}
}

// chanos-sim -chaos-schedule cy:3000000:nic-slow:0:4:100000 -fail-writes 1 -cores 8 -clients 8 -requests 300 -keys 64 -logblocks 64 -seed 7
//
// A chaos schedule runs the world the flags describe: the injected
// write failure fail-stops the shard under the schedule too, so the
// store ends failed, and the harness judges that loud failure green.
func TestChaosScheduleArmsInjectedWriteFailures(t *testing.T) {
	out := wantExit(t, 0, "-chaos-schedule", "cy:3000000:nic-slow:0:4:100000", "-fail-writes", "1", "-cores", "8", "-clients", "8", "-requests", "300", "-keys", "64", "-logblocks", "64", "-seed", "7")
	if !strings.Contains(out, "lifecycles [failed]") || !strings.Contains(out, "GREEN") {
		t.Fatalf("the schedule did not run the failed-write world green:\n%s", out)
	}
}

// chanos-sim -scenario kvload -replicas 2 -fail-writes 1 -dump-on-fail DIR
// chanos-sim -scenario kvload -machines 3
// chanos-sim -replicas 2 -chaos-schedule cy:1000000:kill-replica:0:1
// chanos-sim -scenario kvload -machines 3 -cores 8 -requests 100 -chaos-schedule gen
// chanos-sim -scenario kvload -rf 2
// chanos-sim -scenario kvload -replica-reads
//
// A kvload world is one serving machine with at most one replica
// machine, which alone serves replica reads. Each of these asks for
// more, so each exits 2 before booting anything, says which flag is
// wrong, and writes no dump.
func TestKVLoadRefusesImpossibleConfigs(t *testing.T) {
	wantRefused(t, []refusal{
		{"replicas-dump", "-replicas 2", []string{"-scenario", "kvload", "-replicas", "2", "-fail-writes", "1"}},
		{"machines", "-machines 3", []string{"-scenario", "kvload", "-machines", "3"}},
		{"replicas-chaos", "-replicas 2", []string{"-replicas", "2", "-chaos-schedule", "cy:1000000:kill-replica:0:1"}},
		{"machines-chaos", "-machines 3", []string{"-scenario", "kvload", "-machines", "3", "-cores", "8", "-requests", "100", "-chaos-schedule", "gen"}},
		{"rf", "-rf 2", []string{"-scenario", "kvload", "-rf", "2"}},
		{"replica-reads", "-replica-reads", []string{"-scenario", "kvload", "-replica-reads"}},
	})
}

// chanos-sim -scenario cluster -cores 8 -requests 100 -fail-writes 1 -dump-on-fail DIR
// chanos-sim -scenario cluster -cores 8 -requests 100 -loss 0.2
// chanos-sim -scenario cluster -replicas 1
// chanos-sim -machines 3 -replica-reads -chaos-schedule gen
// chanos-sim -scenario cluster -stats-every 1
//
// A cluster world reads none of kvload's replica, loss, fault or live
// stats settings, so asking it for one exits 2 naming the flag instead
// of running without it.
func TestClusterRefusesWhatItIgnores(t *testing.T) {
	wantRefused(t, []refusal{
		{"fail-writes", "-fail-writes 1", []string{"-scenario", "cluster", "-cores", "8", "-requests", "100", "-fail-writes", "1"}},
		{"loss", "-loss 0.2", []string{"-scenario", "cluster", "-cores", "8", "-requests", "100", "-loss", "0.2"}},
		{"replicas", "-replicas 1", []string{"-scenario", "cluster", "-replicas", "1"}},
		{"replica-reads-chaos", "-replica-reads", []string{"-machines", "3", "-replica-reads", "-chaos-schedule", "gen"}},
		{"stats-every", "-stats-every", []string{"-scenario", "cluster", "-stats-every", "1"}},
	})
}

// chanos-sim -requests 100
// chanos-sim -scenario kvload -sched rr
// chanos-sim -chaos-schedule gen -stats-every 1
// chanos-sim -chaos-seeds 4 -cores 8
// chanos-sim -redump out.json
//
// A flag the selected mode does not read is refused, not dropped.
func TestFlagsOutsideTheirModeAreRefused(t *testing.T) {
	wantRefused(t, []refusal{
		{"vfs", "-requests", []string{"-requests", "100"}},
		{"scenario", "-sched", []string{"-scenario", "kvload", "-sched", "rr"}},
		{"chaos-schedule", "-stats-every", []string{"-chaos-schedule", "gen", "-stats-every", "1"}},
		{"chaos-seeds", "-cores", []string{"-chaos-seeds", "4", "-cores", "8"}},
		{"redump", "-redump", []string{"-redump", "out.json"}},
	})
}

// refusal is one command line that must exit 2 naming flag.
type refusal struct {
	name, flag string
	args       []string
}

// wantRefused runs each refusal, in parallel (none boots a world), with
// -dump-on-fail pointing at a fresh directory where the mode reads it,
// and requires exit 2, a stderr message naming the flag and no dump
// written.
func wantRefused(t *testing.T, cases []refusal) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := c.args
			if slices.Contains(args, "-scenario") || slices.Contains(args, "-chaos-schedule") {
				args = append(args, "-dump-on-fail", dir)
			}
			_, stderr, code := run(t, args...)
			if code != 2 {
				t.Fatalf("%v exited %d, want 2", args, code)
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

// wantExit runs chanos-sim with args, requires exit code want and
// returns its stdout.
func wantExit(t *testing.T, want int, args ...string) string {
	t.Helper()
	out, stderr, code := run(t, args...)
	if code != want {
		t.Fatalf("%v exited %d, want %d; stderr: %s\nstdout:\n%s", args, code, want, stderr, out)
	}
	return out
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
	wantExit(t, 0, "-replay", paths[0], "-redump", redump)
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
