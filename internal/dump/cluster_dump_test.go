package dump

import (
	"strings"
	"testing"
)

func clusterConfig() Config {
	return Config{
		Scenario: ScenarioCluster, Machines: 3, RF: 2,
		Clients: 9, Requests: 150, ReadPct: 50, Keys: 90, ValBytes: 64,
	}
}

// clusterDump runs the cluster scenario to completion and dumps all
// nine machines on demand.
func clusterDump(t *testing.T, seed uint64) *Dump {
	t.Helper()
	w := BuildCluster(seed, clusterConfig())
	defer w.Close()
	r := w.Run()
	if !r.Filled {
		t.Fatal("cluster prefill never finished")
	}
	if r.Responses < uint64(w.Config().Requests) {
		t.Fatalf("served %d/%d", r.Responses, w.Config().Requests)
	}
	if r.Errs != 0 || w.Pool.Lost != 0 {
		t.Fatalf("fleet saw %d errors, %d lost requests", r.Errs, w.Pool.Lost)
	}
	return w.C.Snapshot("cluster on-demand")
}

// TestClusterDumpStructural: a cluster dump carries every machine —
// three nodes, each with two replica captures — and is schema-valid.
func TestClusterDumpStructural(t *testing.T) {
	d := clusterDump(t, 21)
	if bad := d.Validate(); len(bad) > 0 {
		t.Fatalf("cluster dump invalid: %v", bad)
	}
	if len(d.Machines) != 3 {
		t.Fatalf("machines section has %d entries, want 3", len(d.Machines))
	}
	for _, m := range d.Machines {
		if len(m.Replicas) != 2 {
			t.Fatalf("machine %d captured %d replicas, want 2", m.Node, len(m.Replicas))
		}
		if m.MapVersion != 1 {
			t.Fatalf("machine %d at map version %d, want 1", m.Node, m.MapVersion)
		}
		var indexed int
		for _, sh := range m.Store {
			indexed += len(sh.Index)
		}
		if indexed == 0 {
			t.Fatalf("machine %d store captured no index entries", m.Node)
		}
		if m.Telemetry == nil || len(m.NIC) == 0 || len(m.Net) == 0 {
			t.Fatalf("machine %d missing its telemetry, nic or net capture", m.Node)
		}
	}
	d2, err := Decode(d.Encode())
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if !Equal(d, d2) {
		t.Fatalf("round-trip not equal: %v", Diff(d, d2))
	}
}

// TestClusterDumpDeterminism: same seed and config, byte-identical
// nine-machine dump — the whole cluster is one deterministic artifact.
func TestClusterDumpDeterminism(t *testing.T) {
	a := clusterDump(t, 23)
	b := clusterDump(t, 23)
	if !Equal(a, b) {
		t.Fatalf("same seed+config, different cluster dump:\n%s", strings.Join(Diff(a, b), "\n"))
	}
	c := clusterDump(t, 24)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical cluster dumps")
	}
}

// TestClusterDumpDifferential: replay a cluster dump to its recorded
// event count and re-dump — every machine must match byte for byte.
func TestClusterDumpDifferential(t *testing.T) {
	orig := clusterDump(t, 21)
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
		t.Fatalf("replayed cluster differs from dump:\n%s", strings.Join(Diff(orig, redump), "\n"))
	}
}

// TestClusterDumpValidate: the per-machine check catches missing
// machines, short replica captures and a node whose store shard lost
// its log-device geometry.
func TestClusterDumpValidate(t *testing.T) {
	d := clusterDump(t, 21)
	d2, err := Decode(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	d2.Machines = d2.Machines[:2]
	bad := d2.Validate()
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "machines section has 2") {
		t.Fatalf("Validate missed the truncated machines section: %v", bad)
	}
	d3, _ := Decode(d.Encode())
	d3.Machines[1].Replicas = d3.Machines[1].Replicas[:1]
	bad = d3.Validate()
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "rf 2 but 1 replica") {
		t.Fatalf("Validate missed the short replica capture: %v", bad)
	}
	d4, _ := Decode(d.Encode())
	d4.Machines[2].Store[1].Disk.NumBlocks = 0
	d4.Machines[2].Store[1].Disk.BlockSize = 0
	bad = d4.Validate()
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "machine 2: store shard 1: no log-device geometry") {
		t.Fatalf("Validate missed node 2's zeroed disk geometry: %v", bad)
	}
}

// TestUnreplicatedClusterPrefillsAtOnce: an RF-0 cluster has no quorum
// to wait for, so prefill starts at boot and ends in a few simulated ms
// — not after the quorum wait's whole 2000-slice budget (200M cycles).
func TestUnreplicatedClusterPrefillsAtOnce(t *testing.T) {
	w := BuildCluster(7, Config{Machines: 3, RF: 0, Requests: 50})
	defer w.Close()
	r := w.Run()
	if !r.Filled || r.Responses < 50 {
		t.Fatalf("filled=%v served %d/50", r.Filled, r.Responses)
	}
	if r.PrefillCycles >= 20_000_000 {
		t.Fatalf("prefill finished at %d cycles, want < 20M", r.PrefillCycles)
	}
}
