package dump_test

import (
	"fmt"
	"strings"
	"testing"

	"chanos/internal/chaos"
	"chanos/internal/dump"
)

// boot runs a builder and returns the world it booted, or the value it
// panicked with.
func boot(build func() dump.Scenario) (w dump.Scenario, refused any) {
	defer func() { refused = recover() }()
	return build(), nil
}

// TestWorldSelectorAgrees: Check, both builders and Validate read one
// selector, the filled Scenario. Over Scenario × Machines, a config
// Check refuses boots in neither builder, panicking with Check's error;
// otherwise only the builder of the filled world boots it, the other
// refuses naming -scenario, and the dump the world records names that
// world, holds one capture per serving machine and validates.
func TestWorldSelectorAgrees(t *testing.T) {
	kv, cl := dump.ScenarioKVLoad, dump.ScenarioCluster
	for _, c := range []struct {
		scenario string
		machines int
		world    string // "" = Check refuses
		nodes    int
	}{
		{"", 0, kv, 1},
		{"", 3, cl, 3},
		{kv, 0, kv, 1},
		{kv, 3, "", 0},
		{cl, 0, cl, 3},
		{cl, 3, cl, 3},
	} {
		t.Run(fmt.Sprintf("%q/machines=%d", c.scenario, c.machines), func(t *testing.T) {
			cfg := dump.Config{Scenario: c.scenario, Machines: c.machines, Requests: 50}
			checkErr := cfg.Check()
			if (checkErr == nil) != (c.world != "") {
				t.Fatalf("Check = %v, want a refusal: %v", checkErr, c.world == "")
			}
			for _, b := range []struct {
				name, world string
				build       func() dump.Scenario
			}{
				{"Build", kv, func() dump.Scenario { return dump.Build(7, cfg) }},
				{"BuildCluster", cl, func() dump.Scenario { return dump.BuildCluster(7, cfg) }},
			} {
				w, refused := boot(b.build)
				switch {
				case c.world == "" || b.world != c.world:
					if w != nil {
						w.Close()
						t.Fatalf("%s booted %+v (Check: %v)", b.name, cfg, checkErr)
					}
					err, _ := refused.(error)
					if checkErr != nil && (err == nil || err.Error() != checkErr.Error()) {
						t.Fatalf("%s panicked with %v, want Check's %v", b.name, refused, checkErr)
					}
					if checkErr == nil && (err == nil || !strings.Contains(err.Error(), "-scenario "+c.world)) {
						t.Fatalf("%s panicked with %v, want a refusal naming -scenario %s", b.name, refused, c.world)
					}
					continue
				case refused != nil:
					t.Fatalf("%s refused a %s config: %v", b.name, c.world, refused)
				}
				w.Run()
				d := w.Driver().C.Snapshot("on demand")
				w.Close()
				if d.Config.Scenario != c.world || len(d.Machines) != c.nodes {
					t.Fatalf("%s recorded a %q dump with %d captures, want %q with %d",
						b.name, d.Config.Scenario, len(d.Machines), c.world, c.nodes)
				}
				if bad := d.Validate(); len(bad) > 0 {
					t.Fatalf("%s's dump fails validation: %v", b.name, bad)
				}
			}
		})
	}
}

// TestReplayRefusesADumpOfAnotherShape: a kvload dump edited by hand to
// say cluster, its one capture kept, is faulted by Validate, and both
// dump.Replay and chaos.Replay refuse it with that fault instead of
// rebooting it as a three-node cluster.
func TestReplayRefusesADumpOfAnotherShape(t *testing.T) {
	w := dump.Build(7, dump.Config{Requests: 50})
	w.Run()
	d := w.C.Snapshot("on demand")
	w.Close()
	d.Config.Scenario = dump.ScenarioCluster

	const want = "config has 3 machines but machines section has 1"
	if bad := strings.Join(d.Validate(), "\n"); !strings.Contains(bad, want) {
		t.Fatalf("Validate missed the one-capture cluster dump: %q", bad)
	}
	rw, _, err := dump.Replay(d)
	if rw != nil {
		rw.Close()
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("dump.Replay = %v, want a refusal naming %q", err, want)
	}
	d.Config.Chaos = "cy:1000000:nic-slow:0:2:300000"
	r, err := chaos.Replay(d)
	if r != nil {
		r.Close()
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("chaos.Replay = %v, want a refusal naming %q", err, want)
	}
}
