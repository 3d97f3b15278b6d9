// Package telemetry is the chanOS observability plane, built the way the
// paper says every part of the system should be built: share-nothing and
// message-passing. Each shard of an instrumented service (store, net,
// NIC queues, scheduler cores) owns a private metric set — plain Go
// counters, gauges and log2 histograms that only the owning handler
// thread ever writes, so there is no shared bookkeeping memory and no
// atomics anywhere (the scalability literature's first bottleneck).
// Statd aggregates by *visiting* the shards and copying their values
// out; the shards never push, never lock, never even know they are
// being observed.
//
// A read schedules nothing and charges no cycles: it runs from the host
// between drive slices, from an engine trigger (sim.Engine.AfterEvent)
// or inside the handler serving a STATS request — never on a statd
// service thread and never as an engine event of its own. That choice
// is load-bearing: a statd thread would occupy cores,
// charge context switches and delay co-located services, and a statd
// event would shift the event count a core dump replays to. The repo's
// observability contract is the opposite — same seed, telemetry on or
// off, byte-identical final state, op counts and event count — so the
// observer must cost the observed machine nothing. See DESIGN.md
// §telemetry for the derivation.
//
// Snapshots are versioned and JSON-serialisable (the store's STATS wire
// verb scrapes one from a live machine), and obey conservation laws —
// every read and write arrival is accounted for by exactly one terminal
// counter or one in-flight gauge — that Snapshot.Conservation checks and
// tests gate on (internal/exp's in the pinned E15 and E17c tables).
package telemetry

import (
	"fmt"
	"reflect"

	"chanos/internal/sim/detmap"
	"chanos/internal/stats"
)

// Kind classifies a metric value.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1 // monotone count owned by one shard
	KindGauge                   // instantaneous level, read at snapshot time
	KindHist                    // log2 histogram (stats.Histogram)
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "hist"
	}
	return "?"
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON parses a kind name (snapshots round-trip through the
// STATS wire verb).
func (k *Kind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"counter"`:
		*k = KindCounter
	case `"gauge"`:
		*k = KindGauge
	case `"hist"`:
		*k = KindHist
	default:
		return fmt.Errorf("telemetry: unknown kind %s", b)
	}
	return nil
}

// HistStats is the serialisable summary of one histogram.
type HistStats struct {
	N    uint64  `json:"n"`
	Min  uint64  `json:"min"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
	P50  uint64  `json:"p50"`
	P99  uint64  `json:"p99"`
}

// Value is one named metric as collected from one shard (or summed into
// a service total).
type Value struct {
	Name string     `json:"name"`
	Kind Kind       `json:"kind"`
	V    uint64     `json:"v,omitempty"`
	Hist *HistStats `json:"hist,omitempty"`

	// h carries the full histogram during collection so totals can merge
	// bucket-exactly; it is not serialised.
	h *stats.Histogram
}

// Counter builds a counter value.
func Counter(name string, v uint64) Value { return Value{Name: name, Kind: KindCounter, V: v} }

// Gauge builds a gauge value.
func Gauge(name string, v uint64) Value { return Value{Name: name, Kind: KindGauge, V: v} }

// HistValue snapshots a histogram into a value (the histogram is copied;
// the owner may keep mutating its own).
func HistValue(name string, h *stats.Histogram) Value {
	cp := *h
	return Value{Name: name, Kind: KindHist, Hist: histStats(&cp), h: &cp}
}

func histStats(h *stats.Histogram) *HistStats {
	return &HistStats{
		N: h.N(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Percentile(50), P99: h.Percentile(99),
	}
}

// Source is a sharded service exposing per-shard metric sets. Collection
// must be read-only and side-effect free on the service: CollectShard is
// called from device/host context between handler executions, and a
// collect that mutated service state (or cost simulated cycles) would
// make observation perturb the observed machine.
type Source interface {
	// Shards is the number of per-shard metric sets.
	Shards() int
	// CollectShard emits every metric of one shard's private set.
	CollectShard(shard int, emit func(Value))
}

// EmitCounters emits every exported uint64 field of the struct pointed
// to by c as a counter named after the field. Reflection is fine here:
// emission happens at sweep time (host/device context, off every hot
// path), and a single field list in the struct definition beats a
// hand-maintained parallel name table drifting out of sync.
func EmitCounters(c any, emit func(Value)) {
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
			continue
		}
		emit(Counter(f.Name, v.Field(i).Uint()))
	}
}

// SumCounters adds every exported uint64 field of src into the matching
// field of dst (both must point to values of the same struct type) —
// the per-shard → aggregate fold used by Store.Counters and
// Stack.Counters.
func SumCounters(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src).Elem()
	t := d.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
			continue
		}
		d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
	}
}

// SnapshotVersion is the snapshot JSON schema version; bump on any
// incompatible change.
const SnapshotVersion = 1

// ServiceStats is one service's collected metrics: per-shard sets plus
// the fold across them (counters and gauges sum; histograms merge
// bucket-exactly before summarising).
type ServiceStats struct {
	Name     string    `json:"name"`
	Shards   int       `json:"shards"`
	Totals   []Value   `json:"totals"`
	PerShard [][]Value `json:"per_shard,omitempty"`
}

// Total returns the named total (0 if absent).
func (s *ServiceStats) Total(name string) uint64 {
	for _, v := range s.Totals {
		if v.Name == name {
			return v.V
		}
	}
	return 0
}

// TotalHist returns the named merged histogram summary (nil if absent).
func (s *ServiceStats) TotalHist(name string) *HistStats {
	for _, v := range s.Totals {
		if v.Name == name {
			return v.Hist
		}
	}
	return nil
}

// Snapshot is one aggregated view of every registered service, as
// Statd.SnapshotNow builds it.
type Snapshot struct {
	Version  int            `json:"version"`
	Seq      uint64         `json:"seq"`
	AtCycles uint64         `json:"at_cycles"`
	Services []ServiceStats `json:"services"`
}

// Service returns the named service's stats (nil if absent).
func (s *Snapshot) Service(name string) *ServiceStats {
	for i := range s.Services {
		if s.Services[i].Name == name {
			return &s.Services[i]
		}
	}
	return nil
}

// Total returns service's named total (0 if either is absent).
func (s *Snapshot) Total(service, name string) uint64 {
	if svc := s.Service(service); svc != nil {
		return svc.Total(name)
	}
	return 0
}

// collectService folds one source into a ServiceStats given its already
// collected per-shard values.
func foldService(name string, perShard [][]Value) ServiceStats {
	svc := ServiceStats{Name: name, Shards: len(perShard), PerShard: perShard}
	idx := make(map[string]int)
	var hists map[string]*stats.Histogram
	for _, shard := range perShard {
		for _, v := range shard {
			i, ok := idx[v.Name]
			if !ok {
				i = len(svc.Totals)
				idx[v.Name] = i
				svc.Totals = append(svc.Totals, Value{Name: v.Name, Kind: v.Kind})
			}
			switch v.Kind {
			case KindHist:
				if v.h == nil {
					continue
				}
				if hists == nil {
					hists = make(map[string]*stats.Histogram)
				}
				if hists[v.Name] == nil {
					hists[v.Name] = &stats.Histogram{}
				}
				hists[v.Name].Merge(v.h)
			default:
				svc.Totals[i].V += v.V
			}
		}
	}
	for _, name := range detmap.Keys(hists) {
		h := hists[name]
		svc.Totals[idx[name]].Hist = histStats(h)
		svc.Totals[idx[name]].h = h
	}
	return svc
}

// Conservation checks the snapshot's conservation laws and returns one
// message per violated law (empty means all pass). The laws hold at ANY
// instant — including a live mid-heal scrape — because every in-flight
// request sits in exactly one gauge until its terminal counter fires:
//
//	reads:   Gets + ReplicaGets == CacheHits + CacheMisses + GetNotFound
//	         + ReadErrors + RefusedSyncing + RefusedLag + ReplReadsParked
//	writes:  Puts + Deletes == AckedWrites + LogFull + WriteErrors
//	         + DeleteMisses + WritesInFlight
//	acks:    AckedWrites == AckedLocal + AckedQuorum
//	flushes: FlushesStarted == FlushesDone + FlushesInFlight
//
// Every service carrying a Gets total (the store on any machine,
// primary or replica) is checked.
func (s *Snapshot) Conservation() []string {
	var bad []string
	check := func(svc *ServiceStats, law string, lhs, rhs uint64) {
		if lhs != rhs {
			bad = append(bad, fmt.Sprintf("%s: %s: %d != %d", svc.Name, law, lhs, rhs))
		}
	}
	for i := range s.Services {
		svc := &s.Services[i]
		if !svc.hasTotal("Gets") {
			continue
		}
		check(svc, "reads conserved",
			svc.Total("Gets")+svc.Total("ReplicaGets"),
			svc.Total("CacheHits")+svc.Total("CacheMisses")+svc.Total("GetNotFound")+
				svc.Total("ReadErrors")+svc.Total("RefusedSyncing")+svc.Total("RefusedLag")+
				svc.Total("ReplReadsParked"))
		check(svc, "writes conserved",
			svc.Total("Puts")+svc.Total("Deletes"),
			svc.Total("AckedWrites")+svc.Total("LogFull")+svc.Total("WriteErrors")+
				svc.Total("DeleteMisses")+svc.Total("WritesInFlight"))
		check(svc, "acks = local + quorum",
			svc.Total("AckedWrites"),
			svc.Total("AckedLocal")+svc.Total("AckedQuorum"))
		check(svc, "flushes conserved",
			svc.Total("FlushesStarted"),
			svc.Total("FlushesDone")+svc.Total("FlushesInFlight"))
	}
	return bad
}

func (s *ServiceStats) hasTotal(name string) bool {
	for _, v := range s.Totals {
		if v.Name == name {
			return true
		}
	}
	return false
}
