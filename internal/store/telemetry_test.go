package store

import (
	"fmt"
	"testing"

	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/telemetry"
)

// TestConservationOverMixedWorkload runs an E15-style mix (puts, warm and
// cold gets, deletes, not-found gets, scans) and checks the snapshot
// conservation laws at many instants — mid-slice, with writes parked in
// group-commit flushes — not just at the quiet end. The laws are the
// point of the counter design: every arrival sits in exactly one terminal
// counter or one in-flight gauge, at any moment a scrape might land.
func TestConservationOverMixedWorkload(t *testing.T) {
	w := newSW(8, smallParams(), 31, nil)
	defer w.rt.Shutdown()
	sd := telemetry.NewStatd(w.eng)
	sd.Register("store", w.kv)
	w.kv.AttachStatd(sd)

	const clients = 3
	left := clients
	val := make([]byte, 600) // evicts constantly with CacheBlocks=2
	w.rt.Boot("load", func(th *core.Thread) {
		for i := 0; i < clients; i++ {
			i := i
			rng := sim.NewRNG(700 + uint64(i)*13)
			th.Spawn(fmt.Sprintf("client.%d", i), func(ct *core.Thread) {
				for op := 0; op < 150; op++ {
					key := fmt.Sprintf("k%02d", rng.Intn(30))
					switch rng.Intn(8) {
					case 0, 1, 2:
						w.kv.Put(ct, key, val)
					case 3, 4:
						w.kv.Get(ct, key)
					case 5:
						w.kv.Delete(ct, key)
					case 6:
						w.kv.Get(ct, fmt.Sprintf("missing/%d", op)) // GetNotFound
					case 7:
						w.kv.Scan(ct, "k", 4)
					}
				}
				left--
			})
		}
	})

	sawInFlight := false
	for i := 0; i < 2000 && left > 0; i++ {
		w.rt.RunFor(25_000)
		snap := sd.SnapshotNow()
		if bad := snap.Conservation(); len(bad) != 0 {
			t.Fatalf("mid-run conservation violated at %d cycles: %v", snap.AtCycles, bad)
		}
		if snap.Total("store", "WritesInFlight") > 0 || snap.Total("store", "FlushesInFlight") > 0 {
			sawInFlight = true
		}
	}
	if left > 0 {
		t.Fatal("workload never finished")
	}
	w.rt.Run()

	snap := sd.SnapshotNow()
	if bad := snap.Conservation(); len(bad) != 0 {
		t.Fatalf("final conservation violated: %v", bad)
	}
	// The mix must actually have exercised every term the laws balance.
	for _, name := range []string{"Gets", "Puts", "Deletes", "CacheHits", "CacheMisses", "GetNotFound", "AckedWrites", "FlushesDone"} {
		if snap.Total("store", name) == 0 {
			t.Errorf("workload never moved %s — the conservation check proved nothing about it", name)
		}
	}
	if !sawInFlight {
		t.Error("no mid-run snapshot caught an in-flight write or flush; the laws were only checked at rest")
	}
	if snap.Total("store", "WritesInFlight") != 0 || snap.Total("store", "FlushesInFlight") != 0 {
		t.Fatalf("drained store still reports in-flight work: %+v", snap.Service("store").Totals)
	}
}

// TestFlightRecorderDumpOnFailStop injects a disk write failure, drives
// the shard into fail-stop, and checks the flight recorder its snapshot
// (the machine dump's per-shard capture) carries: the shard's last
// moments — the put, its doomed flush, the failstop itself.
func TestFlightRecorderDumpOnFailStop(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 33, nil)
	defer w.rt.Shutdown()
	sd := telemetry.NewStatd(w.eng)
	sd.Register("store", w.kv)
	w.kv.AttachStatd(sd)

	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		if r := w.kv.Put(th, "good", []byte("v1")); !r.OK {
			t.Errorf("setup put: %+v", r)
			return
		}
		w.kv.Disks()[0].InjectWriteFailures(1)
		if r := w.kv.Put(th, "bad", []byte("boom")); r.OK {
			t.Errorf("write riding a failed flush was acked: %+v", r)
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}

	sn := w.kv.SnapshotShards()[0]
	if sn.Failed == "" || sn.FlightRecorded == 0 || len(sn.Flight) == 0 {
		t.Fatalf("fail-stopped shard's snapshot carries no flight ring: failed=%q recorded=%d events=%d",
			sn.Failed, sn.FlightRecorded, len(sn.Flight))
	}
	kinds := make(map[string]int)
	for _, ev := range sn.Flight {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"put", "flush", "failstop"} {
		if kinds[want] == 0 {
			t.Errorf("ring is missing the shard's %q activity; kinds seen: %v", want, kinds)
		}
	}

	// Conservation must survive the failure path too: the nacked write and
	// the refused follow-ups are terminals, not leaks.
	if bad := sd.SnapshotNow().Conservation(); len(bad) != 0 {
		t.Fatalf("conservation violated after fail-stop: %v", bad)
	}
}

// TestTelemetryOnOffDeterminism is the observability contract: same seed,
// telemetry fully on (statd registered, attached and read between every
// drive slice) or fully off, byte-identical op counts, final state,
// per-thread finish times AND final engine event count. A snapshot
// schedules nothing and costs zero simulated cycles, so neither the
// schedules nor the event count — the core-dump replay coordinate — can
// diverge. Arming the fail-stop dump hook must be equally invisible
// (internal/dump proves it for a hook that actually trips).
func TestTelemetryOnOffDeterminism(t *testing.T) {
	run := func(withTel, armDump bool) (StoreCounters, []string, []uint64, []sim.Time, uint64) {
		w := newSW(8, smallParams(), 41, nil)
		defer w.rt.Shutdown()
		var sd *telemetry.Statd
		if withTel {
			sd = telemetry.NewStatd(w.eng)
			sd.Register("store", w.kv)
			w.kv.AttachStatd(sd)
		}
		if armDump {
			// A -dump-on-fail world differs only by this hook; with no
			// fail-stop it must change nothing, including Fired().
			w.kv.FailStopHook = func(shard int, err string) {}
		}
		const clients = 2
		left := clients
		finish := make([]sim.Time, clients)
		val := make([]byte, 300)
		w.rt.Boot("load", func(th *core.Thread) {
			for i := 0; i < clients; i++ {
				i := i
				rng := sim.NewRNG(900 + uint64(i)*7)
				th.Spawn(fmt.Sprintf("client.%d", i), func(ct *core.Thread) {
					for op := 0; op < 120; op++ {
						key := fmt.Sprintf("k%02d", rng.Intn(24))
						switch rng.Intn(6) {
						case 0, 1, 2:
							w.kv.Put(ct, key, val)
						case 3, 4:
							w.kv.Get(ct, key)
						case 5:
							w.kv.Delete(ct, key)
						}
					}
					finish[i] = ct.Now()
					left--
				})
			}
		})
		var puts uint64
		for i := 0; i < 2000 && left > 0; i++ {
			w.rt.RunFor(50_000)
			if sd != nil {
				puts = sd.SnapshotNow().Service("store").Total("Puts")
			}
		}
		if left > 0 {
			t.Fatal("workload never finished")
		}
		if sd != nil && puts == 0 {
			t.Fatal("snapshots saw no puts — the instrumented arm was not instrumented")
		}
		var keys []string
		var vers []uint64
		w.rt.Boot("audit", func(th *core.Thread) {
			sc := w.kv.Scan(th, "", 0)
			keys, vers = sc.Keys, sc.Vers
		})
		w.rt.Run()
		return w.kv.Counters(), keys, vers, finish, w.eng.Fired()
	}

	offC, offK, offV, offT, offF := run(false, false)
	onC, onK, onV, onT, onF := run(true, false)
	_, _, _, _, armF := run(true, true)
	if offF != onF || onF != armF {
		t.Fatalf("engine event count diverged: off=%d on=%d dump-armed=%d", offF, onF, armF)
	}
	if offC != onC {
		t.Fatalf("op counts diverged:\n  off: %+v\n  on:  %+v", offC, onC)
	}
	if len(offK) != len(onK) {
		t.Fatalf("final state diverged: %d keys vs %d", len(offK), len(onK))
	}
	for i := range offK {
		if offK[i] != onK[i] || offV[i] != onV[i] {
			t.Fatalf("final state diverged at %d: %s@%d vs %s@%d", i, offK[i], offV[i], onK[i], onV[i])
		}
	}
	for i := range offT {
		if offT[i] != onT[i] {
			t.Fatalf("client %d finished at %d with telemetry off, %d with it on", i, offT[i], onT[i])
		}
	}
}
