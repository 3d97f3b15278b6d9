package dump

import "testing"

// TestBootOrderOracle pins the event sequence of every world Build and
// BuildCluster boot. Each world runs to completion at a fixed seed and
// must fire exactly the recorded number of counted events and serve
// exactly the recorded responses. Machine construction order is part
// of the replay contract (a dump replays only against the boot that
// wrote it), so a refactor that reorders a boot step — a replica
// attached after Listen, an accept thread booted earlier — moves these
// numbers and fails here. If a change moves them on purpose, say why
// and record the new values.
func TestBootOrderOracle(t *testing.T) {
	kv := func(replicas int, replicaReads bool) Config {
		return Config{
			Cores: 8, Clients: 8, Requests: 200, Keys: 64, ValBytes: 64,
			LogBlocks: 64, Replicas: replicas, ReplicaReads: replicaReads,
		}
	}
	runKV := func(cfg Config) (uint64, uint64) {
		w := Build(7, cfg)
		defer w.Close()
		r := w.Run()
		return w.Sys.Eng.Fired(), r.Responses
	}
	cases := []struct {
		name             string
		run              func() (fired, responses uint64)
		fired, responses uint64
	}{
		{"kvload rf0", func() (uint64, uint64) { return runKV(kv(0, false)) }, 10015, 226},
		{"kvload rf1", func() (uint64, uint64) { return runKV(kv(1, false)) }, 13999, 222},
		{"kvload rf1 replica reads", func() (uint64, uint64) { return runKV(kv(1, true)) }, 29782, 214},
		{"cluster 3x2", func() (uint64, uint64) {
			w := BuildCluster(7, clusterConfig())
			defer w.Close()
			r := w.Run()
			return w.C.Eng.Fired(), r.Responses
		}, 42251, 153},
	}
	for _, c := range cases {
		fired, responses := c.run()
		if fired != c.fired || responses != c.responses {
			t.Errorf("%s: fired %d events and served %d responses, want %d and %d",
				c.name, fired, responses, c.fired, c.responses)
		}
	}
}
