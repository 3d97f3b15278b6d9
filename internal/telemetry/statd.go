package telemetry

import (
	"chanos/internal/sim"
)

type namedSource struct {
	name string
	src  Source
}

// Statd is the telemetry aggregation service: a fixed list of named
// sources that SnapshotNow folds into one Snapshot on demand. It
// schedules nothing: every reader — a host loop between drive slices, a
// dump capture, the store's STATS verb — calls SnapshotNow, and reading
// a shard's private metric set costs the simulated machine zero cycles,
// so an instrumented run and an uninstrumented run of the same seed
// fire the same events.
type Statd struct {
	eng     *sim.Engine
	sources []namedSource
	seq     uint64
}

// NewStatd returns a statd on eng with no sources.
func NewStatd(eng *sim.Engine) *Statd { return &Statd{eng: eng} }

// Register adds a named source. Register every source before the first
// snapshot so the Snapshot layout is fixed.
func (d *Statd) Register(name string, src Source) {
	d.sources = append(d.sources, namedSource{name, src})
}

// SnapshotNow collects every source synchronously (all shards at the
// current instant) and returns the fold, stamped with the next sequence
// number. This is also the path behind the store's STATS wire verb: the
// scrape request itself arrives as a message and costs wire traffic
// like any other request, but building the snapshot costs the machine
// nothing.
func (d *Statd) SnapshotNow() *Snapshot {
	d.seq++
	snap := &Snapshot{Version: SnapshotVersion, Seq: d.seq, AtCycles: d.eng.Now()}
	for _, ns := range d.sources {
		perShard := make([][]Value, ns.src.Shards())
		for i := range perShard {
			var vals []Value
			ns.src.CollectShard(i, func(v Value) { vals = append(vals, v) })
			perShard[i] = vals
		}
		snap.Services = append(snap.Services, foldService(ns.name, perShard))
	}
	return snap
}

// SchedInfo is what the scheduler source needs from the channel
// runtime; core.Runtime satisfies it as-is.
type SchedInfo interface {
	NumCores() int
	CoreLoad(i int) int
	CoreAssigned(i int) int
}

type schedSource struct {
	info SchedInfo
	// busyPermille reports core i's busy fraction of elapsed time in
	// permille (the machine model owns the cycle accounting).
	busyPermille func(i int) uint64
}

// NewSchedSource adapts the scheduler to a telemetry source: one shard
// per core, emitting run-queue depth, assigned-thread count and busy
// permille. busyPermille may be nil.
func NewSchedSource(info SchedInfo, busyPermille func(core int) uint64) Source {
	return &schedSource{info: info, busyPermille: busyPermille}
}

func (s *schedSource) Shards() int { return s.info.NumCores() }

func (s *schedSource) CollectShard(i int, emit func(Value)) {
	emit(Gauge("RunQueue", uint64(s.info.CoreLoad(i))))
	emit(Gauge("Assigned", uint64(s.info.CoreAssigned(i))))
	if s.busyPermille != nil {
		emit(Gauge("BusyPermille", s.busyPermille(i)))
	}
}
