package store

import (
	"chanos/internal/blockdev"
	"chanos/internal/sim/detmap"
	"chanos/internal/telemetry"
)

// IndexEntry is one key's index entry as captured into a machine core
// dump — where the current version lives in the log, and whether it is
// a tombstone.
type IndexEntry struct {
	Key   string `json:"key"`
	Block int    `json:"block"`
	Off   int    `json:"off"`
	VLen  int    `json:"vlen"`
	Ver   uint64 `json:"ver"`
	Dead  bool   `json:"dead,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// ShardSnapshot is one store shard's whole private world as captured
// into a machine core dump: index (sorted by key), cache residency (in
// LRU order, most recent first), the open tail block, lifecycle and
// replication horizons, parked work, the counter set, the flight
// recorder ring, and the shard's log device down to platter contents.
type ShardSnapshot struct {
	Shard     int    `json:"shard"`
	Lifecycle uint64 `json:"lifecycle"` // 0 solo, 1 failed-over, 2 syncing, 3 quorum, 4 failed
	Failed    string `json:"failed,omitempty"`

	Epoch     uint64 `json:"epoch"`
	OpenBlock int    `json:"open_block"`
	Open      []byte `json:"open,omitempty"`
	Dirty     int    `json:"dirty"`
	LiveBytes int    `json:"live_bytes"`

	Waiters       int  `json:"waiters"`
	ReplWait      int  `json:"repl_wait"`
	ParkedReads   int  `json:"parked_reads"`
	ParkedReplGet int  `json:"parked_repl_gets"`
	FlushArmed    bool `json:"flush_armed,omitempty"`
	Compacting    bool `json:"compacting,omitempty"`

	PrimaryEpoch  uint64 `json:"primary_epoch,omitempty"`
	PrimTail      uint64 `json:"prim_tail,omitempty"`
	ReplApplied   uint64 `json:"repl_applied,omitempty"`
	ReplDurable   uint64 `json:"repl_durable,omitempty"`
	ImageComplete bool   `json:"image_complete,omitempty"`

	Index       []IndexEntry `json:"index"`
	CacheBlocks []int        `json:"cache_blocks,omitempty"`

	Counters       StoreCounters `json:"counters"`
	WritesInFlight uint64        `json:"writes_in_flight"`

	// Flight is the shard's flight-recorder ring (oldest first). The
	// machine dump is the only place a ring ships.
	Flight         []telemetry.FlightEvent `json:"flight,omitempty"`
	FlightRecorded uint64                  `json:"flight_recorded"`

	Disk blockdev.DiskSnapshot `json:"disk"`
}

// SnapshotShards captures every shard in shard order. Read-only on the
// shards; call between engine events (host context or an engine
// trigger), the same window every telemetry read uses.
func (s *Store) SnapshotShards() []ShardSnapshot {
	out := make([]ShardSnapshot, 0, len(s.shards))
	for i, sh := range s.shards {
		if sh == nil {
			// The shard handler has not been built yet (service thread
			// not spawned): an empty entry keeps shard order stable.
			out = append(out, ShardSnapshot{Shard: i})
			continue
		}
		snap := ShardSnapshot{
			Shard:     i,
			Lifecycle: sh.lifecycleCode(),
			Failed:    sh.failed,

			Epoch:     sh.epoch,
			OpenBlock: sh.openBlock,
			Open:      append([]byte(nil), sh.open...),
			Dirty:     sh.dirty,
			LiveBytes: sh.liveBytes,

			Waiters:       len(sh.waiters),
			ReplWait:      sh.replWait.Len(),
			ParkedReplGet: len(sh.replReads),
			FlushArmed:    sh.flushArmed,
			Compacting:    sh.comp != nil,

			PrimaryEpoch:  sh.primaryEpoch,
			PrimTail:      sh.primTail,
			ReplApplied:   sh.replApplied,
			ReplDurable:   sh.replDurable,
			ImageComplete: sh.imageComplete,

			Counters:       sh.m.StoreCounters,
			WritesInFlight: sh.m.writesInFlight,
			Flight:         sh.m.flight.Events(),
			FlightRecorded: sh.m.flight.Recorded(),

			Disk: sh.disk.Snapshot(),
		}
		for _, prs := range detmap.Sorted(sh.reads) {
			snap.ParkedReads += len(prs)
		}
		for _, k := range detmap.Keys(sh.idx) {
			l := sh.idx[k]
			snap.Index = append(snap.Index, IndexEntry{
				Key: k, Block: l.block, Off: l.off, VLen: l.vlen,
				Ver: l.ver, Dead: l.dead, Seq: l.seq,
			})
		}
		for n := sh.cache.head; n != nil; n = n.next {
			snap.CacheBlocks = append(snap.CacheBlocks, n.block)
		}
		out = append(out, snap)
	}
	return out
}
