// The store's metric plane: every counter, gauge and histogram below is
// owned by exactly one shard (a field of its private shardMetrics) and
// written only from the shard's handler path — no shared bookkeeping
// memory, no atomics, exactly the share-nothing discipline the data
// itself lives under. Aggregation happens by visiting: Counters() and
// CollectShard copy values out from host/device context between handler
// executions, which the single-goroutine simulation makes race-free and
// which costs the simulated machine zero cycles.
//
// The counters obey conservation laws (telemetry.Snapshot.Conservation):
// every GET and every PUT/DELETE arrival lands in exactly one terminal
// counter, and a request between arrival and its terminal sits in
// exactly one gauge (writesInFlight, ReplReadsParked) — so the laws hold
// at any instant, including a live mid-heal STATS scrape.
package store

import (
	"fmt"

	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/telemetry"
)

// StoreCounters is the store's monotone counter set. Per shard it is
// the shard's private tally; Store.Counters() returns the fold across
// shards. Field names are the metric names (telemetry.EmitCounters).
type StoreCounters struct {
	Gets, Puts, Deletes    uint64
	CacheHits, CacheMisses uint64
	GetNotFound            uint64 // GETs answered "no such key" (incl. tombstones)
	ReadErrors             uint64 // GETs refused or nacked with an error
	DeleteMisses           uint64 // DELETEs of absent keys (nothing to make durable)
	WriteErrors            uint64 // PUT/DELETEs refused or nacked with an error (excl. LogFull)

	// FlushesStarted and FlushesDone also sequence the shard's log
	// writes: the disk is serial FIFO, so once FlushesDone reaches the
	// FlushesStarted of time T, every flush issued by T is on the
	// platters (compaction's epoch barrier, chaos's quiescence).
	FlushesStarted, FlushesDone uint64
	FlushedRecords              uint64
	AckedWrites                 uint64 // write acks sent (durability confirmed)
	AckedLocal                  uint64 // ...acked at local flush (solo/syncing contract)
	AckedQuorum                 uint64 // ...acked at two-machine quorum
	Replayed                    uint64 // records replayed during recovery
	LogFull                     uint64 // writes refused: log region exhausted

	CompactionsStarted uint64 // compaction passes begun (incl. crash resumes)
	CompactionsDone    uint64 // epoch switches committed
	CompactionsSkipped uint64 // past high water but live set too big to win space
	CompactedRecords   uint64 // records rewritten into a fresh region
	CompactedBytes     uint64 // log bytes those records occupy
	EpochWritesDurable uint64 // superblock (epoch record) writes on the platters
	FailedShards       uint64 // shards fail-stopped after a log write error

	ReplBatches     uint64 // replication batches shipped (primary side)
	ReplRecords     uint64 // records those batches carried
	ReplAcks        uint64 // replica acks received (primary side)
	ReplSyncs       uint64 // bootstrap/catch-up sweeps started (primary side)
	ReplSyncRecords uint64 // records streamed by bootstrap sweeps
	ReplApplied     uint64 // records applied from a primary (replica side)
	ReplStale       uint64 // replicated records skipped as duplicates (replica side)

	ReplAttaches   uint64 // replica attachments begun (AttachReplica calls)
	ReplHeals      uint64 // shard attachments that reached quorum via a bootstrap image
	ReplDetached   uint64 // shard attachments dropped before quorum (replica lost mid-sync)
	ReplTolerated  uint64 // armed attachments lost with the majority intact (minority kills survived)
	ReplAdverts    uint64 // tail advertisements shipped ahead of their flush
	ReplicaGets    uint64 // replica-read GETs (replica side)
	RefusedSyncing uint64 // ...refused: bootstrap image incomplete
	RefusedLag     uint64 // ...refused: advertised lag beyond the staleness bound
	ReplicaWaits   uint64 // ...parked for the durable horizon (at least once)

	VerWrites uint64 // version-carrying writes applied (migration ingest)
	VerStale  uint64 // version-carrying writes acked without applying (duplicates)
}

// shardMetrics is one shard's private metric set. Recording is plain
// field arithmetic on shard-owned memory — free of simulated cost, so
// the instrumented and uninstrumented schedules are identical.
type shardMetrics struct {
	StoreCounters
	// FlushLatency is cycles from a log write's issue to its completion
	// interrupt; BatchSize is acks carried per group-commit flush.
	FlushLatency stats.Histogram
	BatchSize    stats.Histogram
	// writesInFlight counts client writes between append and terminal
	// disposition (ack or nack) — across the waiters list, the batch of
	// each flush in transit (diskDone), and replWait. The writes
	// conservation law's gauge.
	writesInFlight uint64
	// flight is the shard's flight recorder (dumped on fail-stop).
	flight telemetry.Flight
}

// now is the shard's clock for metric timestamps.
func (sh *shard) now() sim.Time { return sh.s.rt.Eng.Now() }

// lifecycleCode is the shard's lifecycle state as a gauge: 0 solo,
// 1 failed-over, 2 syncing, 3 quorum, 4 failed. With N attachments the
// shard is at quorum only when every attachment is armed.
func (sh *shard) lifecycleCode() uint64 {
	switch {
	case sh.failed != "":
		return 4
	case len(sh.repls) > 0 && sh.armedCount() == len(sh.repls):
		return 3
	case len(sh.repls) > 0:
		return 2
	case sh.s.recovered:
		return 1
	}
	return 0
}

// replLag is the shard's current replication lag in sequences: on a
// primary, the WORST captured-but-unacked gap across its attachments
// (max over lastSeq − ackedSeq); on a replica, advertised-but-unapplied
// (primTail − replApplied).
func (sh *shard) replLag() uint64 {
	if sh.s.replicaRole {
		if sh.primTail > sh.replApplied {
			return sh.primTail - sh.replApplied
		}
		return 0
	}
	var worst uint64
	for _, r := range sh.repls {
		worst = max(worst, r.lag())
	}
	return worst
}

// Counters folds every shard's private counter set into one total —
// the read path for experiments, chanos-sim and tests.
func (s *Store) Counters() StoreCounters {
	var c StoreCounters
	for _, sh := range s.shards {
		if sh != nil {
			telemetry.SumCounters(&c, &sh.m.StoreCounters)
		}
	}
	return c
}

// CollectShard implements telemetry.Source: emit shard i's counters,
// instantaneous gauges and histograms. Read-only on the shard.
func (s *Store) CollectShard(i int, emit func(telemetry.Value)) {
	sh := s.shards[i]
	if sh == nil {
		return
	}
	telemetry.EmitCounters(&sh.m.StoreCounters, emit)
	emit(telemetry.Gauge("WritesInFlight", sh.m.writesInFlight))
	emit(telemetry.Gauge("FlushesInFlight", sh.m.FlushesStarted-sh.m.FlushesDone))
	emit(telemetry.Gauge("ReplReadsParked", uint64(len(sh.replReads))))
	emit(telemetry.Gauge("QueueDepth", uint64(s.svc.Shard(i).Len())))
	emit(telemetry.Gauge("LiveBytes", uint64(sh.liveBytes)))
	emit(telemetry.Gauge("ReplLag", sh.replLag()))
	emit(telemetry.Gauge("LifecycleState", sh.lifecycleCode()))
	// Per-attachment rows, keyed by the machine's attach slot so a
	// healing minority is visible from a live scrape: state 1 syncing,
	// 2 synced (image complete), 3 armed (voting toward quorum).
	for slot, rm := range s.replicas {
		for _, r := range sh.repls {
			if r.rm != rm {
				continue
			}
			st := uint64(1)
			if r.synced {
				st = 2
			}
			if r.quorum {
				st = 3
			}
			emit(telemetry.Gauge(fmt.Sprintf("Repl%dState", slot), st))
			emit(telemetry.Gauge(fmt.Sprintf("Repl%dLag", slot), r.lag()))
		}
	}
	emit(telemetry.HistValue("FlushLatency", &sh.m.FlushLatency))
	emit(telemetry.HistValue("BatchSize", &sh.m.BatchSize))
}

// AttachStatd wires a statd into the store: the STATS wire verb answers
// with d.SnapshotNow(). (Registering the store as one of d's sources is
// the caller's choice of name: d.Register("store", kv).)
func (s *Store) AttachStatd(d *telemetry.Statd) { s.statd = d }
