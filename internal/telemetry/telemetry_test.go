package telemetry

import (
	"encoding/json"
	"testing"

	"chanos/internal/sim"
	"chanos/internal/stats"
)

// fakeSource is a hand-driven telemetry.Source for exercising the fold
// without a real service.
type fakeSource struct {
	shards  int
	collect func(shard int, emit func(Value))
}

func (f *fakeSource) Shards() int                          { return f.shards }
func (f *fakeSource) CollectShard(i int, emit func(Value)) { f.collect(i, emit) }

func TestFlightRingOldestFirst(t *testing.T) {
	var f Flight
	f.Init(4)
	for i := uint64(0); i < 10; i++ {
		f.Record(sim.Time(i*100), "op", "", i, 0)
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.A != uint64(6+i) {
			t.Fatalf("event %d has A=%d, want %d (oldest-first tail)", i, ev.A, 6+i)
		}
	}

	// A partially filled ring returns exactly what was recorded, in order.
	var g Flight
	g.Init(4)
	g.Record(1, "a", "k", 1, 0)
	g.Record(2, "b", "", 2, 0)
	if evs := g.Events(); len(evs) != 2 || evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("partial ring events = %+v", evs)
	}
}

func TestEmitAndSumCounters(t *testing.T) {
	type cs struct {
		Hits   uint64
		Misses uint64
		Depth  uint32 // not uint64: must be skipped
		hidden uint64 // unexported: must be skipped
	}
	a := cs{Hits: 3, Misses: 1, Depth: 9, hidden: 5}
	var got []Value
	EmitCounters(&a, func(v Value) { got = append(got, v) })
	if len(got) != 2 || got[0].Name != "Hits" || got[0].V != 3 || got[1].Name != "Misses" || got[1].V != 1 {
		t.Fatalf("EmitCounters = %+v", got)
	}
	b := cs{Hits: 10, Misses: 20, hidden: 7}
	SumCounters(&b, &a)
	if b.Hits != 13 || b.Misses != 21 || b.hidden != 7 {
		t.Fatalf("SumCounters = %+v", b)
	}
}

func TestSnapshotFoldAndLookup(t *testing.T) {
	eng := sim.NewEngine()
	sd := NewStatd(eng)
	sd.Register("svc", &fakeSource{shards: 2, collect: func(shard int, emit func(Value)) {
		emit(Counter("Ops", uint64(shard+1))) // totals to 3
		emit(Gauge("Depth", 5))               // totals to 10
		var h stats.Histogram
		for i := 0; i < 10*(shard+1); i++ {
			h.Add(uint64(100 << shard))
		}
		emit(HistValue("Lat", &h))
	}})
	snap := sd.SnapshotNow()
	if snap.Version != SnapshotVersion || snap.Seq != 1 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	svc := snap.Service("svc")
	if svc == nil || svc.Shards != 2 {
		t.Fatalf("service missing or wrong shape: %+v", svc)
	}
	if got := snap.Total("svc", "Ops"); got != 3 {
		t.Fatalf("Ops total = %d, want 3 (per-shard sum)", got)
	}
	if got := svc.Total("Depth"); got != 10 {
		t.Fatalf("Depth total = %d, want 10 (gauges sum in the fold)", got)
	}
	h := svc.TotalHist("Lat")
	if h == nil || h.N != 30 || h.Min != 100 || h.Max != 200 {
		t.Fatalf("merged histogram = %+v, want n=30 min=100 max=200", h)
	}
	// Absent names are zero/nil, never a panic.
	if snap.Total("svc", "Nope") != 0 || snap.Total("nope", "Ops") != 0 || svc.TotalHist("Nope") != nil {
		t.Fatal("absent lookups not zero-valued")
	}

	// The wire verb ships snapshots as JSON; a scrape client must get the
	// same totals back, kinds included.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if back.Total("svc", "Ops") != 3 || back.Service("svc").Totals[0].Kind != KindCounter {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
	if bh := back.Service("svc").TotalHist("Lat"); bh == nil || bh.N != 30 {
		t.Fatalf("round-tripped histogram = %+v", bh)
	}
}

func TestConservationLaws(t *testing.T) {
	balanced := ServiceStats{Name: "store", Totals: []Value{
		Counter("Gets", 10), Counter("ReplicaGets", 2),
		Counter("CacheHits", 5), Counter("CacheMisses", 3), Counter("GetNotFound", 2),
		Counter("ReadErrors", 1), Counter("RefusedSyncing", 1), Counter("RefusedLag", 0),
		Gauge("ReplReadsParked", 0),
		Counter("Puts", 6), Counter("Deletes", 1),
		Counter("AckedWrites", 5), Counter("LogFull", 0), Counter("WriteErrors", 1),
		Counter("DeleteMisses", 0), Gauge("WritesInFlight", 1),
		Counter("AckedLocal", 3), Counter("AckedQuorum", 2),
		Counter("FlushesStarted", 4), Counter("FlushesDone", 3), Gauge("FlushesInFlight", 1),
	}}
	snap := &Snapshot{Services: []ServiceStats{balanced}}
	if bad := snap.Conservation(); len(bad) != 0 {
		t.Fatalf("balanced snapshot violates laws: %v", bad)
	}

	// Lose one read terminal: exactly the reads law must fire.
	leaky := balanced
	leaky.Totals = append([]Value(nil), balanced.Totals...)
	leaky.Totals[2] = Counter("CacheHits", 4)
	snap = &Snapshot{Services: []ServiceStats{leaky}}
	bad := snap.Conservation()
	if len(bad) != 1 {
		t.Fatalf("want exactly one violation, got %v", bad)
	}
	if want := "reads conserved"; !contains(bad[0], want) {
		t.Fatalf("violation %q does not name %q", bad[0], want)
	}

	// Services without a Gets total (net, nic, sched) are not checked.
	other := ServiceStats{Name: "net", Totals: []Value{Counter("RxPackets", 9)}}
	snap = &Snapshot{Services: []ServiceStats{other}}
	if bad := snap.Conservation(); len(bad) != 0 {
		t.Fatalf("non-store service checked: %v", bad)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Zero-shard sources (a service registered before its shards boot) must
// not wedge the fold, and a snapshot schedules nothing on the engine.
func TestStatdSkipsEmptySources(t *testing.T) {
	eng := sim.NewEngine()
	sd := NewStatd(eng)
	sd.Register("empty", &fakeSource{shards: 0, collect: func(int, func(Value)) {
		t.Fatal("collected a shard of a zero-shard source")
	}})
	sd.Register("svc", &fakeSource{shards: 1, collect: func(_ int, emit func(Value)) {
		emit(Counter("Ops", 7))
	}})
	snap := sd.SnapshotNow()
	if snap.Total("svc", "Ops") != 7 {
		t.Fatalf("fold after empty source wrong: %+v", snap)
	}
	if next := sd.SnapshotNow(); next.Seq != snap.Seq+1 {
		t.Fatalf("snapshot seq %d after %d, want consecutive", next.Seq, snap.Seq)
	}
	if eng.Pending() != 0 || eng.Fired() != 0 {
		t.Fatalf("snapshots touched the engine: %d pending, %d fired", eng.Pending(), eng.Fired())
	}
}
