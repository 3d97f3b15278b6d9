// Root benchmark harness: one testing.B benchmark per experiment table/
// figure (see ARCHITECTURE.md's "Layer → experiments" table), plus wall-clock microbenchmarks of the
// runtime itself. Experiment benchmarks run the full experiment per
// iteration — use -benchtime=1x for a single regeneration:
//
//	go test -bench=BenchmarkE1 -benchtime=1x
//	go test -bench=. -benchmem
package chanos_test

import (
	"fmt"
	"testing"

	"chanos"
	"chanos/internal/core"
	"chanos/internal/exp"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/store"
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

// BenchmarkRuntimeHandoff measures the bare host cost of one switch to a
// simulated thread and back: two threads share a core and Yield it to
// each other, so each op is one Yield, one context-switch event and one
// resumption.
func BenchmarkRuntimeHandoff(b *testing.B) {
	sys := chanos.New(1, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	stop := false
	n := 0
	for range 2 {
		sys.Boot("yielder", func(t *chanos.Thread) {
			for !stop {
				t.Yield()
				n++
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N {
		sys.RunFor(1_000_000)
	}
	b.StopTimer()
	stop = true
	sys.RunFor(10_000_000) // let the loops observe stop and exit
}

// BenchmarkKernelCall measures the host cost of one synchronous system
// call: a request message to a kernel-service shard and the reply back.
func BenchmarkKernelCall(b *testing.B) {
	sys := chanos.New(4, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	k := kernel.New(sys.RT, kernel.Config{})
	k.Register("null", 1, func(*core.Thread, kernel.Request) core.Msg { return nil })
	stop := false
	n := 0
	sys.Boot("app", func(t *chanos.Thread) {
		for !stop {
			k.Call(t, "null", 0, "null", nil)
			n++
		}
	}, chanos.OnCore(1))
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N {
		sys.RunFor(1_000_000)
	}
	b.StopTimer()
	stop = true
	sys.RunFor(10_000_000) // let the caller observe stop and exit
}

// BenchmarkStorePut measures the host cost of one synchronous PUT on a
// warm one-shard store: the request, the append, the group-commit
// flush it waits for, the disk completion and the reply.
func BenchmarkStorePut(b *testing.B) {
	benchStore(b, func(t *chanos.Thread, kv *chanos.Store, key string, val []byte) { kv.Put(t, key, val) })
}

// BenchmarkStoreGet measures the host cost of one GET served from the
// open block or the block cache of a warm one-shard store.
func BenchmarkStoreGet(b *testing.B) {
	benchStore(b, func(t *chanos.Thread, kv *chanos.Store, key string, _ []byte) { kv.Get(t, key) })
}

// benchStore runs op from one thread over 64 keys, each first written
// once so that the store and its free lists are warm before the timer
// starts.
func benchStore(b *testing.B, op func(t *chanos.Thread, kv *chanos.Store, key string, val []byte)) {
	sys := chanos.New(4, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	kv := sys.NewStore(kernel.New(sys.RT, kernel.Config{}), store.Params{Shards: 1})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/%02d", i)
	}
	val := make([]byte, 100)
	warm, stop := false, false
	n := 0
	sys.Boot("app", func(t *chanos.Thread) {
		for _, key := range keys {
			kv.Put(t, key, val)
		}
		warm = true
		for !stop {
			op(t, kv, keys[n%len(keys)], val)
			n++
		}
	}, chanos.OnCore(1))
	for !warm {
		sys.RunFor(1_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N {
		sys.RunFor(1_000_000)
	}
	b.StopTimer()
	stop = true
	sys.RunFor(10_000_000) // let the caller observe stop and exit
}

// BenchmarkConnCycle measures the host cost of one warm connection
// lifecycle on an eight-core machine with a two-shard netstack: a dial,
// one echoed request, the close from both sides and the run until the
// simulation is quiet. Each op starts one handler thread on the server.
func BenchmarkConnCycle(b *testing.B) {
	sys := chanos.New(8, chanos.Config{Seed: 1})
	defer sys.Shutdown()
	nic := sys.NewNIC(machine.NICParams{})
	nw := sys.NewNetwork(nic, net.DefaultWireParams())
	l := sys.NewNetStack(kernel.New(sys.RT, kernel.Config{}), nic, net.StackParams{Shards: 2}).Listen(80)
	sys.Boot("accept", func(t *chanos.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.Spawn("echo", func(ht *chanos.Thread) {
				for {
					v, ok := c.Recv(ht)
					if !ok {
						break
					}
					c.Send(ht, v, 256)
				}
				c.Close(ht)
			})
		}
	})
	var ping core.Msg = "ping"
	hooks := net.EndpointHooks{
		OnOpen:    func(ep *net.Endpoint) { ep.Send(ping, 64) },
		OnMessage: func(ep *net.Endpoint, _ core.Msg, _ int) { ep.Close() },
	}
	cycle := func() {
		nw.Dial(80, hooks)
		sys.Run()
	}
	for range 300 {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cycle()
	}
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
