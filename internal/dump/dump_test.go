package dump

import (
	"strings"
	"testing"
)

// testConfig is a small kvload world with one injected write failure on
// shard 0's log device: the first flush there fails, the shard
// fail-stops, and the armed collector writes a dump.
func testConfig() Config {
	return Config{
		Cores: 8, Clients: 8, Requests: 200, ReadPct: 70,
		Keys: 64, ValBytes: 64, LogBlocks: 64,
		FailWrites: 1, FailShard: 0,
	}
}

// failStopDump runs the scenario to its injected fail-stop and returns
// the automatically captured dump.
func failStopDump(t *testing.T, seed uint64) *Dump {
	t.Helper()
	w := Build(seed, testConfig())
	defer w.Close()
	var d *Dump
	w.C.OnFailStop(func(got *Dump) { d = got })
	w.Run()
	if d == nil {
		t.Fatal("injected write failure produced no fail-stop dump")
	}
	return d
}

// TestDumpStructural is the first test level: a crash dump must be
// schema-valid and carry non-empty per-shard entries in every section.
func TestDumpStructural(t *testing.T) {
	d := failStopDump(t, 7)
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("fail-stop dump invalid: %v", bad)
	}
	if !strings.Contains(d.Reason, "fail-stop: node 0 store shard 0") {
		t.Fatalf("reason %q does not name the failed shard", d.Reason)
	}
	if d.EventCount == 0 || d.AtCycles == 0 {
		t.Fatalf("replay coordinate missing: event_count=%d at_cycles=%d", d.EventCount, d.AtCycles)
	}
	m := d.Machines[0]
	var sawFailed, sawFlight, sawIndex, sawBlocks bool
	for _, sh := range m.Store {
		if sh.Failed != "" && sh.Lifecycle == 4 {
			sawFailed = true
		}
		if len(sh.Flight) > 0 {
			sawFlight = true
		}
		if len(sh.Index) > 0 {
			sawIndex = true
		}
		if len(sh.Disk.Blocks) > 0 {
			sawBlocks = true
		}
	}
	if !sawFailed {
		t.Error("no store shard recorded as failed")
	}
	if !sawFlight {
		t.Error("no flight-recorder ring shipped in the dump")
	}
	if !sawIndex {
		t.Error("no shard index captured")
	}
	if !sawBlocks {
		t.Error("no platter contents captured")
	}
	if len(m.Threads) == 0 || len(m.Cores) == 0 {
		t.Error("scheduler sections empty")
	}
	// The dump must round-trip through its own encoding.
	d2, err := Decode(d.Encode())
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if !Equal(d, d2) {
		t.Fatalf("round-trip not equal: %v", Diff(d, d2))
	}
}

// TestDumpDeterminism is the second level: the same seed and config
// must produce a byte-identical dump — the (seed, config, event-count)
// triple is only a reproduction recipe if nothing else leaks in.
func TestDumpDeterminism(t *testing.T) {
	a := failStopDump(t, 11)
	b := failStopDump(t, 11)
	if a.EventCount != b.EventCount {
		t.Fatalf("fail-stop event count differs: %d vs %d", a.EventCount, b.EventCount)
	}
	if !Equal(a, b) {
		t.Fatalf("same seed+config, different dump:\n%s", strings.Join(Diff(a, b), "\n"))
	}
	c := failStopDump(t, 12)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical dumps")
	}
}

// TestDumpDifferential is the third level: replaying a dump to its
// recorded event count and re-dumping must reproduce the dump exactly —
// the time-travel contract end to end.
func TestDumpDifferential(t *testing.T) {
	orig := failStopDump(t, 7)
	w, _, err := Replay(orig)
	if w != nil {
		defer w.Close()
	}
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	c := w.Driver().C
	if got := c.Eng.Fired(); got != orig.EventCount {
		t.Fatalf("replay halted at event %d, recorded %d", got, orig.EventCount)
	}
	if got := c.Eng.Now(); got != orig.AtCycles {
		t.Fatalf("replay halted at cycle %d, dump captured at %d", got, orig.AtCycles)
	}
	redump := c.Snapshot(orig.Reason)
	if !Equal(orig, redump) {
		t.Fatalf("replayed state differs from dump:\n%s", strings.Join(Diff(orig, redump), "\n"))
	}
}

// TestDumpOnDemand: a healthy world dumps on demand too, and the
// workload's conservation self-check holds.
func TestDumpOnDemand(t *testing.T) {
	cfg := testConfig()
	cfg.FailWrites = 0
	w := Build(3, cfg)
	defer w.Close()
	r := w.Run()
	if r.Responses < uint64(cfg.Requests) {
		t.Fatalf("served %d/%d", r.Responses, cfg.Requests)
	}
	if len(r.ConservationBad) > 0 {
		t.Fatalf("conservation violated: %v", r.ConservationBad)
	}
	d := w.C.Snapshot("on-demand")
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("on-demand dump invalid: %v", bad)
	}
}

// TestDumpDiffAndVersion: Diff localises changes, Validate and Decode
// enforce the schema version policy.
func TestDumpDiffAndVersion(t *testing.T) {
	d := failStopDump(t, 7)
	d2, err := Decode(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	d2.Machines[0].Store[0].Counters.Gets++
	d2.Seed = 99
	diffs := Diff(d, d2)
	if len(diffs) != 2 {
		t.Fatalf("want 2 diff lines, got %v", diffs)
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "seed") || !strings.Contains(joined, "store[0].counters") {
		t.Fatalf("diff did not localise the changes: %v", diffs)
	}

	d2.Version = Version + 1
	if _, err := Decode(d2.Encode()); err == nil {
		t.Fatal("Decode accepted a newer schema version")
	}
	d3 := *d
	d3.EventCount = 0
	d3.Machines = append([]MachineDump(nil), d.Machines...)
	d3.Machines[0].Telemetry = nil
	if bad := d3.Validate(); len(bad) < 2 {
		t.Fatalf("Validate missed problems: %v", bad)
	}
	for _, c := range []struct {
		flag string
		edit func(*Config)
	}{
		{"-replicas 2", func(c *Config) { c.Replicas = 2 }},
		{"-rf 2", func(c *Config) { c.RF = 2 }},
		{"-replica-reads", func(c *Config) { c.ReplicaReads = true }},
		{"-fail-writes 1", func(c *Config) { c.Scenario = ScenarioCluster }},
	} {
		d4 := *d
		c.edit(&d4.Config)
		if bad := strings.Join(d4.Validate(), "\n"); !strings.Contains(bad, c.flag) {
			t.Fatalf("Validate missed a %s config with %s: %q", d4.Config.Scenario, c.flag, bad)
		}
	}
}

// TestConfigCheckNamesTheIgnoredFlag: Check refuses every config field
// its world would not read, naming the flag that sets it, and passes
// the configs each world does run.
func TestConfigCheckNamesTheIgnoredFlag(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		flag string // "" = accepted
	}{
		{Config{}, ""},
		{Config{Replicas: 1, ReplicaReads: true, Loss: 0.2, FailWrites: 1, FailShard: 1}, ""},
		{Config{Machines: 3, RF: 2}, ""},
		{Config{Scenario: ScenarioCluster, RF: 2}, ""},
		{Config{Scenario: "e15-store", RF: 2, Loss: 0.2}, ""},
		{Config{Scenario: ScenarioKVLoad, Machines: 3}, "-machines 3"},
		{Config{RF: 2}, "-rf 2"},
		{Config{Replicas: 2}, "-replicas 2"},
		{Config{ReplicaReads: true}, "-replica-reads"},
		{Config{Replicas: 2, ReplicaReads: true}, "-replicas 2"},
		{Config{Machines: 3, Replicas: 1}, "-replicas 1"},
		{Config{Scenario: ScenarioCluster, ReplicaReads: true}, "-replica-reads"},
		{Config{Machines: 3, Loss: 0.2}, "-loss 0.2"},
		{Config{Scenario: ScenarioCluster, FailWrites: 1}, "-fail-writes 1"},
		{Config{Scenario: ScenarioCluster, FailShard: 1}, "-fail-shard 1"},
	} {
		err := c.cfg.Check()
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%+v refused: %v", c.cfg, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%+v: want an error naming %s, got %v", c.cfg, c.flag, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BuildCluster booted a config Check refuses")
		}
	}()
	BuildCluster(7, Config{Machines: 3, Loss: 0.2}).Close()
}
