// Root benchmark harness: one testing.B benchmark per experiment table/
// figure (see ARCHITECTURE.md's "Layer → experiments" table), plus wall-clock microbenchmarks of the
// runtime itself. Experiment benchmarks run the full experiment per
// iteration — use -benchtime=1x for a single regeneration:
//
//	go test -bench=BenchmarkE1 -benchtime=1x
//	go test -bench=. -benchmem
package chanos_test

import (
	"testing"

	"chanos"
	"chanos/internal/core"
	"chanos/internal/exp"
)

// benchOpts keeps benchmark runs fast; the chanos-bench CLI runs the full
// sweeps.
var benchOpts = exp.Options{Quick: true, Seed: 42}

func benchExperiment(b *testing.B, id string) {
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchOpts)
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// One benchmark per experiment (tables and figures).

func BenchmarkE1KernelScaling(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2SyscallMechanisms(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3Primitives(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4AsyncIO(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5VnodeFS(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6VMGranularity(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7Availability(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8DriverModel(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Placement(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10ProtoVerify(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Choice(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12CopySemantics(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13VMCluster(b *testing.B)        { benchExperiment(b, "E13") }

// BenchmarkNetstack is the headline traffic-serving benchmark: the full
// E14 netstack scaling experiment (cores and shard sweeps).
func BenchmarkNetstack(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkStore is the headline stateful-serving benchmark: the full
// E15 store scaling experiment (cores, store shards, read/write mix).
func BenchmarkStore(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkStoreReplication is the machine-loss durability benchmark:
// the full E16 experiment (local vs quorum cost, seeded primary kills).
func BenchmarkStoreReplication(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkStoreHeal is the replication-lifecycle benchmark: the full
// E17 experiment (kill/failover/re-attach/heal cycles, replica reads).
func BenchmarkStoreHeal(b *testing.B) { benchExperiment(b, "E17") }

// Ablations (design-choice knobs called out in DESIGN.md).

func BenchmarkA1MsgCostSensitivity(b *testing.B)  { benchExperiment(b, "A1") }
func BenchmarkA2QueueDepth(b *testing.B)          { benchExperiment(b, "A2") }
func BenchmarkA3KernelCoreFraction(b *testing.B)  { benchExperiment(b, "A3") }
func BenchmarkA4TrapCostSensitivity(b *testing.B) { benchExperiment(b, "A4") }

// --- wall-clock microbenchmarks: host cost of the simulator itself ---

// BenchmarkRuntimeSendRecv measures the real (host) cost per simulated
// rendezvous message, i.e. how expensive the deterministic gating is.
func BenchmarkRuntimeSendRecv(b *testing.B) {
	sys := chanos.New(4, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	ch := sys.NewChan("bench", 0)
	stop := false
	sys.Boot("rx", func(t *chanos.Thread) {
		for !stop {
			ch.Recv(t)
		}
	}, chanos.OnCore(1))
	n := 0
	sys.Boot("tx", func(t *chanos.Thread) {
		for !stop {
			ch.Send(t, n)
			n++
		}
	}, chanos.OnCore(0))
	b.ReportAllocs()
	b.ResetTimer()
	// Drive the engine for as many events as b.N sends require.
	for n < b.N {
		sys.RunFor(1_000_000)
	}
	b.StopTimer()
	stop = true
	sys.RunFor(10_000_000) // let the loops observe stop and exit
}

// BenchmarkRuntimeSpawn measures host cost per simulated thread spawn.
func BenchmarkRuntimeSpawn(b *testing.B) {
	sys := chanos.New(8, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	done := make(chan struct{})
	sys.Boot("spawner", func(t *chanos.Thread) {
		for i := 0; i < b.N; i++ {
			t.Spawn("child", func(t2 *core.Thread) {})
		}
		close(done)
	})
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run()
	<-done
}

// BenchmarkEngineEvents measures raw event throughput of the DES engine.
func BenchmarkEngineEvents(b *testing.B) {
	sys := chanos.New(1, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	var fire func(d uint64)
	fire = func(d uint64) {
		sys.Eng.After(d, func() { fire(1) })
	}
	fire(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Eng.Step()
	}
}
