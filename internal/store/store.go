// Package store is the chanOS key-value storage service: the repo's
// first stateful kernel service, built exactly the way the paper (§4)
// says kernel components should be built. The service is sharded by key
// hash via kernel.RegisterEach — each shard's handler thread owns a
// private index, an LRU block cache and the tail of its own
// log-structured persistence region, so there are no locks anywhere.
// Every external event re-enters the shard as an ordinary service
// message: the group-commit flush timer ("flush"), the disk completion
// interrupt ("flushed"), the cache-miss read completion ("readdone") —
// the same discipline the netstack uses for its "rto".
//
// Persistence is a per-shard append-only log on a per-shard block
// device (a disk-array stripe): PUT and DELETE append self-describing
// records to the open tail block, acknowledgements are deferred
// (kernel.Deferred) until the group-commit write that carries the
// record completes, and recovery replays the log front to back — so an
// acknowledged write provably survives a crash, and an unacknowledged
// one provably does not outlive the flush it was waiting on.
//
// The log is bounded but the store is not: each shard's device carries
// two log regions and a superblock. Appends fill the epoch-active
// region; when it crosses the high-water mark the shard compacts —
// copies its live records into the other region in bounded increments,
// each increment a deferred self-message ("compact"), so the shard
// keeps serving between increments and never blocks — then commits the
// switch with a sealed region-epoch record (see compact.go and
// DESIGN.md §store).
//
// Durability extends past the machine: each shard can stream its log
// to a replica shard on a second simulated machine and ack writes only
// on two-machine quorum (repl.go). Replication is a runtime lifecycle,
// not a boot-time configuration — a solo or failed-over store heals by
// attaching a fresh replica while live (lifecycle.go), and the
// replica's version-correct index serves bounded-staleness GETs
// (replica_read.go).
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/sim/fifo"
	"chanos/internal/telemetry"
)

// Params tunes the store service.
type Params struct {
	// Shards is the number of store handler threads (and log devices);
	// keys are routed by FNV-1a hash. 0 = one shard per kernel core.
	Shards int
	// CacheBlocks is the per-shard LRU block cache capacity, in sealed
	// log blocks. Default 64 (256 KB of hot values per shard).
	CacheBlocks int
	// FlushCycles is the group-commit interval: how long an appended
	// record may wait before the open block is written back, when the
	// disk holds none of the shard's writes. While one of them is still
	// on the disk the timer holds its write instead, and the completion
	// that leaves none outstanding issues it, carrying every record
	// appended meanwhile: the timer never queues a rewrite of the open
	// block behind another write. Shorter means lower write latency,
	// more (smaller) disk writes. Default 50_000 (25 µs).
	FlushCycles uint64
	// LogBlocks is the per-shard log region size in blocks. The device
	// carries two regions plus a superblock; once 3/4 of the active
	// region's blocks are in use (the high-water mark) the shard compacts
	// live records into the other one, so a churning workload never
	// exhausts the log — only a live set that genuinely exceeds the
	// region does. Default 8192.
	LogBlocks int
	// CompactBatch is how many index entries one compaction increment
	// examines before yielding the shard back to request service.
	// Default 64.
	CompactBatch int
	// CompactStepCycles is the pause between compaction increments
	// (each increment re-enters the shard as a deferred self-message).
	// Default 2000 (1 µs).
	CompactStepCycles uint64
	// ReplicaLagBound is the bounded-staleness window for replica reads,
	// in replication sequence numbers: a replica shard refuses a GET
	// when the primary's advertised tail exceeds the shard's applied
	// sequence by more than this. Default 256.
	ReplicaLagBound uint64
	// ReplAdvertiseCycles is how long a captured-but-unflushed record
	// may go unadvertised to the replica (the advert is what lets a
	// replica see the lag it must bound). Default FlushCycles/2.
	ReplAdvertiseCycles uint64
	// Disk overrides the per-shard log device model; zero-valued fields
	// take blockdev.DefaultDiskParams(1 + 2*LogBlocks).
	Disk blockdev.DiskParams
}

func (p *Params) fill() {
	if p.CacheBlocks <= 0 {
		p.CacheBlocks = 64
	}
	if p.FlushCycles == 0 {
		p.FlushCycles = 50_000
	}
	if p.LogBlocks <= 0 {
		p.LogBlocks = 8192
	}
	if p.CompactBatch <= 0 {
		p.CompactBatch = 64
	}
	if p.CompactStepCycles == 0 {
		p.CompactStepCycles = 2_000
	}
	if p.ReplicaLagBound == 0 {
		p.ReplicaLagBound = 256
	}
	if p.ReplAdvertiseCycles == 0 {
		p.ReplAdvertiseCycles = p.FlushCycles / 2
	}
	def := blockdev.DefaultDiskParams(superBlocks + 2*p.LogBlocks)
	if p.Disk.NumBlocks <= 0 {
		p.Disk.NumBlocks = superBlocks + 2*p.LogBlocks
	}
	if p.Disk.BlockSize <= 0 {
		p.Disk.BlockSize = def.BlockSize
	}
	if p.Disk.AccessCycles == 0 {
		p.Disk.AccessCycles = def.AccessCycles
	}
	if p.Disk.CyclesPerByt == 0 {
		p.Disk.CyclesPerByt = def.CyclesPerByt
	}
	if p.Disk.IRQCycles == 0 {
		p.Disk.IRQCycles = def.IRQCycles
	}
}

// GetResult answers a GET. Val is a read-only view of the log block
// that holds the value, not a copy: a block's written bytes never
// change (see shard.open), and the view's capacity ends at its length,
// so an append to it reallocates. The shard answers with a *GetResult
// from the store's free list, and Get and GetReplica take it back.
type GetResult struct {
	Found bool
	Ver   uint64
	Val   []byte
	Err   string
}

// MsgBytes implements core.Sized.
func (r GetResult) MsgBytes() int { return 24 + len(r.Val) + len(r.Err) }

// WriteResult answers a PUT or DELETE. Ver is the version the write
// created (for DELETE, the tombstone's version); Found reports whether
// the key existed before a DELETE. Like GetResult, it travels as a
// *WriteResult from a store free list, which the caller's side takes
// back.
type WriteResult struct {
	OK    bool
	Found bool
	Ver   uint64
	Err   string
}

// MsgBytes implements core.Sized.
func (r WriteResult) MsgBytes() int { return 24 + len(r.Err) }

// Service request arguments. The ones a client sends per operation
// travel as records from the store's free lists — keyArg for get and
// getr, writeArg for the four writes, *ReplBatch for repl — and the
// shard takes each back (sim.FreeList.Take) before its handler runs, as
// the kernel does with the *Request around it. A record is sized
// through its value's MsgBytes, so it bills what the value would.
type keyArg struct{ Key string }

func (a keyArg) MsgBytes() int { return 16 + len(a.Key) }

// writeArg is the one request record of the four writes: PUT and DELETE
// (Op recPut or recDel, a fresh version minted by the shard) and their
// version-carrying forms PUTV and DELV (Versioned, applied at Ver).
// A DELETE carries no value.
type writeArg struct {
	Op        byte
	Versioned bool
	Key       string
	Val       []byte
	Ver       uint64
}

// MsgBytes bills the key, a PUT's value and length word, and a
// versioned write's version word.
func (a writeArg) MsgBytes() int {
	n := 16 + len(a.Key)
	if a.Op == recPut {
		n += 8 + len(a.Val)
	}
	if a.Versioned {
		n += 8
	}
	return n
}

// op is the kernel op the write travels as. The request bills its op
// name's length, so each kind keeps the name it has always had.
func (a writeArg) op() string {
	switch {
	case a.Op == recPut && a.Versioned:
		return "putv"
	case a.Op == recPut:
		return "put"
	case a.Versioned:
		return "delv"
	}
	return "delete"
}

// diskDone is the disk interrupt for one operation on the shard's log
// device, and the argument of the message (op) it re-enters the shard
// as: "flushed" for a log write, "epochdone" for a superblock write,
// "readdone" for a cache-miss read. A log write carries the
// acknowledgements it made durable and — for a sealing write only —
// the block's final contents, which enter the cache now that they are
// known to be on disk (the buffer the disk committed, which on a
// replica may be its primary's); a read carries the block it read.
// data is nil otherwise, so the message is billed for a payload
// exactly when it carries one.
//
// Records come from the shard's free list and go back once their
// message is handled. Each binds its done func (Program's completion
// callback) once, when first taken, and the disk stages into a block
// buffer an earlier write retired or takes a sealed block as it is, so
// a warm log write allocates nothing. batch is the group-commit buffer:
// a flush swaps it with the shard's waiters, so the two slices trade
// places instead of a new batch growing per flush.
type diskDone struct {
	op     string
	batch  []pendingWrite
	block  int
	data   []byte
	sealed bool
	ok     bool
	err    string
	// at is the virtual time the write was issued — observability
	// metadata for the flush-latency histogram, carried free (it does
	// not change the message's billed size).
	at   sim.Time
	from int // core of the thread that programmed the operation

	sh   *shard
	self *diskDone // the record done is bound to
	done func(blockdev.Result)
}

func (d diskDone) MsgBytes() int { return 32 + len(d.data) }

// newDiskDone takes a completion record for op from the shard's free
// list.
func (sh *shard) newDiskDone(t *core.Thread, op string) *diskDone {
	d := sh.diskFree.Get()
	if d.self != d {
		// A new record, or a copy strict mode made in transit (whose done
		// is bound to the original): bind done to this one.
		d.sh, d.self = sh, d
		d.done = d.complete
	}
	d.op, d.from = op, t.Core()
	return d
}

// complete is the disk's completion interrupt: it records the outcome
// and re-enters the shard as d's message.
func (d *diskDone) complete(res blockdev.Result) {
	d.ok, d.err = res.OK, res.Err
	switch d.op {
	case "readdone":
		d.data = res.Data
	case "flushed":
		if d.sealed && res.OK {
			// The block the disk committed: the given buffer, or the
			// primary's identical one on a replica's disk. Its length
			// stays the message's.
			d.data = res.Data[:len(d.data)]
		}
	case "epochdone":
		if res.OK {
			d.sh.m.EpochWritesDurable++
		}
	}
	svc, id := d.sh.s.svc, d.sh.id
	svc.Inject(svc.Shard(id), kernel.Request{Op: d.op, Key: id, Arg: d}, d.from)
}

// freeDiskDone puts a handled completion record back, keeping its
// emptied batch buffer for the flush that takes the record next.
func (sh *shard) freeDiskDone(d *diskDone) {
	clear(d.batch)
	*d = diskDone{batch: d.batch[:0], sh: d.sh, self: d.self, done: d.done}
	sh.diskFree.Put(d)
}

// Log record encoding, little-endian:
//
//	[1B op] [2B keylen] [4B vallen] [8B version] key val
//
// op 0 terminates a block (freshly-written disk blocks are zero-filled,
// so the terminator comes free). Records never span blocks.
//
// Device layout: block 0 is the superblock (the sealed region-epoch
// record, see compact.go); blocks [1, 1+LogBlocks) and
// [1+LogBlocks, 1+2*LogBlocks) are the two log regions. Region parity
// follows the epoch: even epochs append into the first region, odd into
// the second. Every log block opens with an 8-byte epoch stamp, so
// replay can tell a block written under the current epoch from a stale
// leftover of an earlier occupancy of the same region.
const (
	recEnd = 0
	recPut = 1
	recDel = 2

	recHeader = 1 + 2 + 4 + 8

	superBlocks = 1 // device blocks reserved for the superblock
	blockHeader = 8 // per-block epoch stamp
)

// stampEpoch starts a fresh open-block buffer with its epoch stamp, at
// a whole block's capacity so that appends never regrow it.
func stampEpoch(epoch uint64, blockSize int) []byte {
	b := make([]byte, blockHeader, blockSize)
	binary.LittleEndian.PutUint64(b, epoch)
	return b
}

// reopen starts an open-block buffer holding tail, the surviving bytes
// of a replayed block. The read lent the platter's own block, which
// appends must not write into, so the tail is copied.
func reopen(tail []byte, blockSize int) []byte {
	return append(make([]byte, 0, blockSize), tail...)
}

// blockEpoch reads a block's epoch stamp.
func blockEpoch(data []byte) uint64 {
	if len(data) < blockHeader {
		return 0
	}
	return binary.LittleEndian.Uint64(data[:blockHeader])
}

// RecordBytes is the log footprint of one record — exported so
// workloads and experiments can account appended bytes exactly.
func RecordBytes(key string, val []byte) int { return recHeader + len(key) + len(val) }

func encRecord(buf []byte, op byte, key string, val []byte, ver uint64) []byte {
	var h [recHeader]byte
	h[0] = op
	binary.LittleEndian.PutUint16(h[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(h[3:7], uint32(len(val)))
	binary.LittleEndian.PutUint64(h[7:15], ver)
	buf = append(buf, h[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// decRecord parses one record at b[off:]. n is the record's full length
// (0 at a terminator or a truncated/corrupt tail).
func decRecord(b []byte, off int) (op byte, key string, valOff, valLen int, ver uint64, n int) {
	if off >= len(b) || b[off] == recEnd {
		return recEnd, "", 0, 0, 0, 0
	}
	if off+recHeader > len(b) {
		return recEnd, "", 0, 0, 0, 0
	}
	op = b[off]
	klen := int(binary.LittleEndian.Uint16(b[off+1 : off+3]))
	vlen := int(binary.LittleEndian.Uint32(b[off+3 : off+7]))
	ver = binary.LittleEndian.Uint64(b[off+7 : off+15])
	if op != recPut && op != recDel {
		return recEnd, "", 0, 0, 0, 0
	}
	end := off + recHeader + klen + vlen
	if end > len(b) {
		return recEnd, "", 0, 0, 0, 0
	}
	key = string(b[off+recHeader : off+recHeader+klen])
	return op, key, off + recHeader + klen, vlen, ver, recHeader + klen + vlen
}

// keyHash routes a key to a shard: FNV-1a 64, masked non-negative.
func keyHash(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (1<<63 - 1))
}

// loc is an index entry: where a key's current value lives in the log.
// Log records never move (blocks are append-only and sealed blocks are
// immutable), so a loc stays valid for the life of the key version.
// A dead loc is a tombstone: the key reads as absent, but its version
// is retained so a re-created key continues the version sequence — a
// client holding (key, version) must never see a different value under
// the same version. Tombstones keep their record's block too, so
// compaction can tell whether the tombstone still lives in the region
// being retired (it must be re-copied, or the version floor is lost).
type loc struct {
	block int
	off   int // offset of the value bytes within the block
	vlen  int
	ver   uint64
	dead  bool
	// seq, on a replica shard, is the replication sequence whose
	// durability this version's failover-safety rides on: a replica
	// read must not serve the version until the shard's durable horizon
	// covers it (replica_read.go). 0 means "already durable somewhere"
	// — primary-side appends, recovery replay and compaction re-copies
	// (whose source record is still on the platters) all write 0.
	seq uint64
}

// pendingWrite is an acknowledgement waiting for its record's block
// write to complete (group commit) — and, under replication, for a
// majority of replicas' cumulative acks to cover its refs (quorum).
// res is the success reply: a *WriteResult record for client writes, a
// *ReplAck record for replica-side applies (repl marks those; their
// acks are durability receipts to the primary, not client acks). Either
// comes from a store free list when the write parks and is sent as it
// is.
type pendingWrite struct {
	reply *core.Chan
	res   core.Msg
	refs  []seqRef
	repl  bool
}

// nackFor turns the waiter's reply into the failure reply err,
// rewriting its record in place: a client write's becomes a refusal,
// and a replica apply's an error ack for the same sequence.
func (pw pendingWrite) nackFor(err string) core.Msg {
	if r, ok := pw.res.(*WriteResult); ok {
		*r = WriteResult{Err: err}
		return r
	}
	a := pw.res.(*ReplAck)
	a.Err = err
	return a
}

// pendingRead is a GET waiting for its block to come back from disk.
type pendingRead struct {
	reply *core.Chan
	l     loc
}

// parkedReadLists caps a shard's spare pending-read lists: reads in
// flight at once are few, and a burst's backlog is not kept.
const parkedReadLists = 4

// shard is one handler thread's private world. No locks: only the shard
// thread (and, for stats, the single-goroutine simulation host) touches
// it.
type shard struct {
	id   int
	s    *Store
	disk *blockdev.Disk

	idx   map[string]loc
	cache *lruCache

	// open holds the contents of the open (tail) log block, at a whole
	// block's capacity. Its bytes are only ever appended to, and a seal
	// gives the buffer to the disk, which commits it as the block, and
	// to the cache, and starts a new one, so a slice of written bytes
	// never changes.
	open       []byte
	openBlock  int
	dirty      int            // records appended since the last flush was issued
	waiters    []pendingWrite // acks riding on the next flush
	flushArmed bool
	// flushHeld marks a group-commit write the timer deferred because an
	// earlier flush write of this shard was still on the disk; the
	// completion that leaves none outstanding issues it (flushed).
	flushHeld bool
	// diskFree recycles the disk completion records (diskDone); refFree
	// the per-write replication refs, from replCapture to the answer.
	diskFree sim.FreeList[diskDone]
	refFree  sim.BufList[seqRef]

	// The group-commit timer's callback is built once per shard;
	// flushFrom is the core that armed the pending timer.
	flushFire func()
	flushFrom int

	reads    map[int][]pendingRead // block -> GETs awaiting its disk read
	readFree sim.BufList[pendingRead]

	// epoch is the shard's committed region epoch: appends land in
	// region epoch&1 (epoch+1&1 while a compaction is in flight).
	epoch uint64
	// repls is the primary-side replication attachment vector (repl.go);
	// empty when the store runs local-only. One entry per attached
	// replica machine, each an independent sequence space.
	repls []*replShard
	// replWait holds locally-durable writes (their flush completed)
	// still waiting for a majority of the replicas' cumulative acks to
	// cover their refs — the other half of the quorum. Capture order.
	replWait fifo.Queue[pendingWrite]
	// primaryEpoch, on a replica shard, is the highest region epoch the
	// primary has streamed (superblock switches travel with batches).
	primaryEpoch uint64
	// Replica-read state (replica shards only; see replica_read.go).
	// primTail is the furthest primary tail ever advertised, replApplied
	// the last batch sequence applied, replDurable the last sequence
	// known durable on this shard's own platters, and imageComplete
	// whether a complete bootstrap image has landed — reads are refused
	// until it has, and refused again whenever primTail−replApplied
	// exceeds the staleness bound.
	primTail      uint64
	replApplied   uint64
	replDurable   uint64
	imageComplete bool
	// replReads holds replica GETs parked until replDurable covers the
	// sequence their resolved version rides on.
	replReads []pendingReplRead
	// liveBytes is the log footprint of the current index contents
	// (live records plus tombstones) — what a compaction would copy.
	liveBytes int
	// comp is the in-flight compaction, nil when idle (compact.go).
	comp *compaction
	// failed, once set, fail-stops the shard: a log write failed, so
	// the in-memory state is no longer a prefix-consistent view of the
	// disk. Every subsequent request is refused with this error; a
	// restart recovers exactly the durable (acknowledged) writes.
	failed string
	// m is the shard's private metric set (telemetry.go): counters,
	// gauges, histograms and the flight recorder, all shard-owned.
	m shardMetrics
}

// Store is the sharded key-value kernel service.
type Store struct {
	rt  *core.Runtime
	k   *kernel.Kernel
	svc *kernel.Service
	P   Params

	disks  []*blockdev.Disk
	shards []*shard // per-shard private state, in shard order (stats only)

	// Free lists of the pooled request arguments (see keyArg), of the
	// replica-ack messages the replication hooks inject (replAckMsg)
	// and of the replication wire's records: batches serve both as
	// request arguments and as a primary's batches on the wire
	// (ReplBatch), replAcks as a replica's receipts (ReplAck).
	keyArgs   sim.FreeList[keyArg]
	writeArgs sim.FreeList[writeArg]
	batches   sim.FreeList[ReplBatch]
	acks      sim.FreeList[replAckMsg]
	replAcks  sim.FreeList[ReplAck]
	// Free lists of the reply records: every GET and write is answered
	// with one, and the client API takes it back.
	gets   sim.FreeList[GetResult]
	writes sim.FreeList[WriteResult]

	replicas  []*ReplicaMachine // quorum replication targets, attach order
	report    []ReplicaStatus   // LifecycleReport's rows, reused
	recovered bool              // booted from carried-over disks
	// replicaRole marks a store built to RECEIVE replication (it lives
	// on a ReplicaMachine): its replica-read path must refuse to serve
	// until a complete bootstrap image has landed, even before the
	// first batch arrives — an empty index here means "not fed yet",
	// not "the data does not exist".
	replicaRole bool

	// statd, when attached, answers the STATS wire verb with a live
	// snapshot (AttachStatd). Metrics themselves live per shard
	// (shardMetrics); Counters() folds them — see telemetry.go.
	statd *telemetry.Statd

	// FailStopHook, when set, is called at the end of every shard
	// fail-stop (after the shard's parked work has been drained) with
	// the shard id and the condemning error. The dump subsystem uses it
	// to schedule a whole-machine core dump as an engine OBSERVER event
	// at the failing instant — the hook itself must not mutate
	// simulated state.
	FailStopHook func(shard int, err string)
}

// New registers the "store" service on k's kernel cores. disks carries
// storage over from a previous life — pass the SnapshotData of each
// shard's log device (in shard order) to recover after a crash; nil
// boots fresh per-shard devices. Recovery replays each shard's log
// before any queued request is served (the replay message is first in
// every shard's FIFO).
func New(rt *core.Runtime, k *kernel.Kernel, p Params, disks []*blockdev.Disk) *Store {
	p.fill()
	shards := p.Shards
	if shards <= 0 {
		shards = len(k.KernelCores())
	}
	s := &Store{rt: rt, k: k, P: p}
	s.shards = make([]*shard, shards)
	recover := disks != nil
	s.recovered = recover
	if recover {
		if len(disks) != shards {
			panic(fmt.Sprintf("store: %d disks for %d shards", len(disks), shards))
		}
		s.disks = disks
	} else {
		for i := 0; i < shards; i++ {
			s.disks = append(s.disks, blockdev.NewDisk(rt, p.Disk))
		}
	}
	s.svc = k.RegisterEach("store", shards, s.shardHandler)
	if recover {
		for i := 0; i < shards; i++ {
			s.svc.Inject(s.svc.Shard(i), kernel.Request{Op: "recover", Key: i}, 0)
		}
	}
	return s
}

// Shards returns the number of store shards.
func (s *Store) Shards() int { return s.svc.Shards() }

// Disks exposes the per-shard log devices (shard order) — for stats and
// for snapshotting in crash/recovery experiments.
func (s *Store) Disks() []*blockdev.Disk { return s.disks }

// regionStart returns the first block of the region that epoch appends
// into (regions alternate with epoch parity).
func (s *Store) regionStart(epoch uint64) int {
	return superBlocks + int(epoch&1)*s.P.LogBlocks
}

// region returns epoch's log region.
func (s *Store) region(epoch uint64) blockdev.Region {
	return blockdev.Region{Start: s.regionStart(epoch), Blocks: s.P.LogBlocks}
}

// LiveBytes sums the log footprint of every shard's current index
// contents — the bytes a full compaction would retain.
func (s *Store) LiveBytes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh != nil {
			n += uint64(sh.liveBytes)
		}
	}
	return n
}

// UsedLogBytes sums the bytes occupied in every shard's log: sealed
// blocks plus the open tail of the write region, and — while a
// compaction is in flight — the source region it has not yet retired.
func (s *Store) UsedLogBytes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		sealed := sh.openBlock - s.regionStart(sh.writeEpoch())
		n += uint64(sealed)*uint64(s.P.Disk.BlockSize) + uint64(len(sh.open))
		if sh.comp != nil {
			n += uint64(sh.comp.srcUsedBytes)
		}
	}
	return n
}

// LiveRatio is LiveBytes over UsedLogBytes: 1.0 means no garbage, and a
// low ratio means churn has buried the live set — the condition
// compaction exists to reverse.
func (s *Store) LiveRatio() float64 {
	used := s.UsedLogBytes()
	if used == 0 {
		return 1
	}
	return float64(s.LiveBytes()) / float64(used)
}

// --- client API (any thread) ---

// Get returns the current value of key.
func (s *Store) Get(t *core.Thread, key string) GetResult {
	return s.gets.Take(s.k.Call(t, "store", keyHash(key), "get", s.keyArgs.Hold(keyArg{Key: key})).(*GetResult))
}

// Put stores val under key; the call returns only once the write's log
// record is durable.
func (s *Store) Put(t *core.Thread, key string, val []byte) WriteResult {
	return s.write(t, writeArg{Op: recPut, Key: key, Val: val})
}

// PutAsync issues a PUT and returns its reply channel immediately, so a
// writer can keep a pipeline of writes riding the same group commit.
// The reply is a *WriteResult.
func (s *Store) PutAsync(t *core.Thread, key string, val []byte) *core.Chan {
	return s.k.CallAsync(t, "store", keyHash(key), "put", s.writeArgs.Hold(writeArg{Op: recPut, Key: key, Val: val}))
}

// Delete removes key (durably: the tombstone is flushed before the call
// returns).
func (s *Store) Delete(t *core.Thread, key string) WriteResult {
	return s.write(t, writeArg{Op: recDel, Key: key})
}

// write sends one write to its key's shard and waits for the ack.
func (s *Store) write(t *core.Thread, a writeArg) WriteResult {
	return s.takeWrite(s.k.Call(t, "store", keyHash(a.Key), a.op(), s.writeArgs.Hold(a)))
}

// takeWrite returns the WriteResult a write's reply v carries and puts
// its record back on the free list.
func (s *Store) takeWrite(v core.Msg) WriteResult { return s.writes.Take(v.(*WriteResult)) }

// --- shard handler ---

func (s *Store) shardHandler(id int) kernel.Handler {
	sh := &shard{
		id:        id,
		s:         s,
		disk:      s.disks[id],
		idx:       make(map[string]loc),
		cache:     newLRUCache(s.P.CacheBlocks),
		reads:     make(map[int][]pendingRead),
		openBlock: s.regionStart(0),
	}
	sh.flushFire = func() {
		s.svc.Inject(s.svc.Shard(id), kernel.Request{Op: "flush", Key: id}, sh.flushFrom)
	}
	s.shards[id] = sh
	return func(t *core.Thread, req kernel.Request) core.Msg {
		switch req.Op {
		case "get":
			return sh.get(t, s.keyArgs.Take(req.Arg.(*keyArg)).Key, req.Reply)
		case "put", "delete", "putv", "delv":
			return sh.write(t, s.writeArgs.Take(req.Arg.(*writeArg)), req.Reply)
		case "export":
			return sh.export(req.Arg.(exportArg))
		case "flush":
			sh.flushArmed = false
			if sh.dirty > 0 && sh.failed == "" {
				if sh.m.FlushesStarted > sh.m.FlushesDone {
					sh.flushHeld = true
				} else {
					sh.flush(t, false)
				}
			}
		case "flushed", "readdone", "epochdone":
			d := req.Arg.(*diskDone)
			switch req.Op {
			case "flushed":
				sh.flushed(t, d)
			case "readdone":
				sh.readDone(t, d)
			default:
				sh.epochDone(t, d)
			}
			sh.freeDiskDone(d)
		case "compact":
			sh.compactStep(t)
		case "recover":
			sh.recover(t)
		case "repl":
			return sh.applyRepl(t, s.batches.Take(req.Arg.(*ReplBatch)), req.Reply)
		case "getr":
			return sh.getReplica(t, s.keyArgs.Take(req.Arg.(*keyArg)).Key, req.Reply)
		case "replattach":
			sh.replAttachIn(t, req.Arg.(replAttach))
		case "replopen":
			sh.replOpen(t, req.Arg.(replOpenMsg))
		case "replack":
			sh.replAckIn(t, s.acks.Take(req.Arg.(*replAckMsg)))
		case "replfail":
			sh.replFailed(t, req.Arg.(replFailMsg))
		case "replsync":
			sh.replSyncStep(t, req.Arg.(replSyncMsg).r)
		case "repladvert":
			sh.replAdvert(t, req.Arg.(replAdvertMsg))
		case "bitrot":
			sh.bitrot(req.Arg.(string))
		}
		return nil
	}
}

// get serves a GET: index hit resolves to the open block, the cache, or
// a disk read. Only the last defers the reply — and never blocks the
// shard; other keys keep being served while the read is in flight.
func (sh *shard) get(t *core.Thread, key string, reply *core.Chan) core.Msg {
	sh.m.Gets++
	if sh.failed != "" {
		sh.m.ReadErrors++
		return sh.getErr(sh.failed)
	}
	l, ok := sh.idx[key]
	if !ok || l.dead {
		sh.m.GetNotFound++
		return sh.notFound()
	}
	return sh.serveLoc(t, l, reply)
}

// found, notFound and getErr are the three answers to a GET, each a
// record from the store's free list. found's value is l's bytes in
// block, viewed in place.
func (sh *shard) found(l loc, block []byte) *GetResult {
	return sh.s.gets.Hold(GetResult{Found: true, Ver: l.ver, Val: block[l.off : l.off+l.vlen : l.off+l.vlen]})
}

func (sh *shard) notFound() *GetResult { return sh.s.gets.Hold(GetResult{}) }

func (sh *shard) getErr(err string) *GetResult { return sh.s.gets.Hold(GetResult{Err: err}) }

// serveLoc materialises one index entry's value: from the open tail
// block, the cache, or a disk read (the only deferring case — the GET
// parks and the shard keeps serving). Shared by the local read path,
// the bounded-lag replica read path, and the parked-read drains.
func (sh *shard) serveLoc(t *core.Thread, l loc, reply *core.Chan) core.Msg {
	if l.block == sh.openBlock {
		// The tail block lives in memory until sealed.
		sh.m.CacheHits++
		return sh.found(l, sh.open)
	}
	if data, hit := sh.cache.get(l.block); hit {
		sh.m.CacheHits++
		return sh.found(l, data)
	}
	// The miss is the read's terminal count: whatever the parked disk
	// read returns later (value or error) was already accounted here.
	sh.m.CacheMisses++
	sh.parkRead(t, l.block, pendingRead{reply: reply, l: l})
	return kernel.Deferred
}

// parkRead queues pr on block's pending-read list; the first parker
// programs the disk read (its completion re-enters the shard as a
// "readdone" message), later parkers ride the same read. A pendingRead
// with a nil reply just materialises the block into the cache — the
// compaction and bootstrap-sync sweeps park that way. A block's list
// comes from readFree and goes back once readDone has answered it.
func (sh *shard) parkRead(t *core.Thread, block int, pr pendingRead) {
	waiting := sh.reads[block]
	if waiting == nil {
		waiting = sh.readFree.Get()
	}
	sh.reads[block] = append(waiting, pr)
	if len(waiting) == 0 {
		sh.programRead(t, block)
	}
}

func (sh *shard) programRead(t *core.Thread, block int) {
	d := sh.newDiskDone(t, "readdone")
	d.block = block
	sh.disk.Program(t, blockdev.Request{Op: blockdev.Read, Block: block}, d.done)
}

// readDone lands a cache-miss block, the platter's own buffer, answers
// every GET parked on it, and resumes a compaction sweep waiting for
// the block's contents.
func (sh *shard) readDone(t *core.Thread, d *diskDone) {
	waiting := sh.reads[d.block]
	delete(sh.reads, d.block)
	if d.ok {
		sh.cache.put(d.block, d.data)
	}
	for _, pr := range waiting {
		switch {
		case pr.reply == nil: // a sweep's park: it wanted only the block
		case !d.ok:
			pr.reply.Send(t, sh.getErr(d.err))
		default:
			pr.reply.Send(t, sh.found(pr.l, d.data))
		}
	}
	sh.readFree.Put(waiting, parkedReadLists)
	if c := sh.comp; c != nil && c.waitBlock == d.block {
		c.waitBlock = -1
		if !d.ok {
			sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: compaction read: %s", sh.id, d.err))
			return
		}
		sh.compactStep(t)
	}
	for _, r := range sh.repls {
		if r.sync != nil && r.sync.waitBlock == d.block {
			r.sync.waitBlock = -1
			if !d.ok {
				sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: replication sync read: %s", sh.id, d.err))
				return
			}
			sh.replSyncStep(t, r)
		}
	}
}

// write is the one write path: PUT, DELETE, PUTV and DELV. The write is
// in the in-flight gauge from arrival: append (block seal) and
// replCapture can yield the shard thread, and a telemetry snapshot
// taken in that window must still see the write accounted — the
// conservation laws hold at ANY instant, not just between requests.
// Every terminal pairs its counter with the gauge decrement.
//
// The checks run in one order: a fail-stopped shard refuses; a
// versioned write at version 0 is refused (native versions start at
// 1); a versioned write at or below the key's version is a duplicate,
// acked without touching the log — what makes migration traffic safe
// to deliver twice; a DELETE of an absent key answers at once (nothing
// to make durable); an oversized record is refused; so is a write the
// log region has no room for. Otherwise the record appends — at a fresh
// version, or at Ver — and the ack waits for it to be durable (group
// commit). Found reports whether the key held a live value before the
// write. A tombstone keeps its version, so a re-created key continues
// the sequence.
func (sh *shard) write(t *core.Thread, a writeArg, reply *core.Chan) core.Msg {
	if a.Op == recPut {
		sh.m.Puts++
	} else {
		sh.m.Deletes++
	}
	sh.m.writesInFlight++
	old, existed := sh.idx[a.Key]
	live := existed && !old.dead
	rec := recHeader + len(a.Key) + len(a.Val)
	var err string
	switch {
	case sh.failed != "":
		err = sh.failed
	case a.Versioned && a.Ver == 0:
		err = fmt.Sprintf("store: versioned write of %q at version 0", a.Key)
	case a.Versioned && existed && old.ver >= a.Ver: // a duplicate DELV reports no live value
		sh.m.VerStale++
		sh.m.writesInFlight--
		return sh.s.writes.Hold(WriteResult{OK: true, Found: live && a.Op == recPut, Ver: old.ver})
	case !a.Versioned && a.Op == recDel && !live:
		sh.m.DeleteMisses++
		sh.m.writesInFlight--
		return sh.s.writes.Hold(WriteResult{OK: true})
	case rec+1+blockHeader > sh.s.P.Disk.BlockSize:
		err = fmt.Sprintf("store: record for %q is %d bytes; max %d", a.Key, rec, sh.s.P.Disk.BlockSize-1-blockHeader-recHeader)
	}
	if err != "" {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return sh.s.writes.Hold(WriteResult{Err: err})
	}
	ver := a.Ver
	if !a.Versioned {
		ver = old.ver + 1
	}
	if !sh.append(t, a.Op, a.Key, a.Val, ver) {
		sh.m.LogFull++
		sh.m.writesInFlight--
		return sh.s.writes.Hold(WriteResult{Err: "store: log region full"})
	}
	sh.applyRecord(a.Op, a.Key, len(a.Val), ver, 0)
	refs := sh.replCapture(t, a.Op, a.Key, len(a.Val), ver)
	if a.Versioned {
		sh.m.VerWrites++
	}
	kind := a.op()
	if kind == "delete" {
		kind = "del" // the flight recorder's name for a DELETE
	}
	sh.m.flight.Record(sh.now(), kind, a.Key, ver, uint64(len(a.Val)))
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, refs: refs,
		res: sh.s.writes.Hold(WriteResult{OK: true, Found: live, Ver: ver})})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

// applyRecord updates the index and the live-bytes accounting for a
// record just appended at the open block's tail — the one place the
// write path, the delete path and the replica's apply agree on what a
// record's log footprint is. Live entries cost header+key+value,
// tombstones header+key (their version floor is retained forever, so
// their footprint is too).
func (sh *shard) applyRecord(op byte, key string, vlen int, ver uint64, seq uint64) {
	old, existed := sh.idx[key]
	if op == recPut {
		if existed {
			sh.liveBytes -= recHeader + len(key)
			if !old.dead {
				sh.liveBytes -= old.vlen
			}
		}
		sh.liveBytes += recHeader + len(key) + vlen
		sh.idx[key] = loc{block: sh.openBlock, off: len(sh.open) - vlen, vlen: vlen, ver: ver, seq: seq}
		return
	}
	if existed && !old.dead {
		sh.liveBytes -= old.vlen
	} else if !existed {
		sh.liveBytes += recHeader + len(key)
	}
	sh.idx[key] = loc{block: sh.openBlock, ver: ver, dead: true, seq: seq}
}

// writeEpoch is the epoch whose region appends currently land in: the
// committed epoch normally, the next one while a compaction is filling
// the fresh region.
func (sh *shard) writeEpoch() uint64 {
	if sh.comp != nil {
		return sh.epoch + 1
	}
	return sh.epoch
}

// append adds one record to the open block, sealing (flushing and
// advancing past) the block first if the record does not fit. Reports
// false when the write epoch's region is exhausted.
func (sh *shard) append(t *core.Thread, op byte, key string, val []byte, ver uint64) bool {
	if sh.open == nil {
		sh.open = stampEpoch(sh.writeEpoch(), sh.s.P.Disk.BlockSize)
	}
	rec := recHeader + len(key) + len(val)
	if len(sh.open)+rec+1 > sh.s.P.Disk.BlockSize {
		if sh.openBlock+1 >= sh.s.region(sh.writeEpoch()).End() {
			return false
		}
		// Seal: the block's final contents go to disk now; the cache
		// copy is inserted only when that write completes (flushed), so
		// a cache hit never serves bytes the platters might not have. A
		// GET landing in the seal-to-completion gap takes a disk read
		// queued behind the seal write — slower, never stale.
		sh.flush(t, true)
		sh.openBlock++
		sh.open = stampEpoch(sh.writeEpoch(), sh.s.P.Disk.BlockSize)
	}
	sh.open = encRecord(sh.open, op, key, val, ver)
	sh.dirty++
	return true
}

// armFlush schedules the group-commit timer (once) — it re-enters the
// shard as a "flush" message. A held flush needs no timer: records
// appended while it is held ride the write its completion issues.
func (sh *shard) armFlush(t *core.Thread) {
	if sh.flushArmed || sh.flushHeld {
		return
	}
	sh.flushArmed = true
	sh.flushFrom = t.Core()
	sh.s.rt.Eng.After(sh.s.P.FlushCycles, sh.flushFire)
}

// flush writes the open block's current contents back to the log device
// and hands the waiting acks to the completion interrupt. The disk
// queues internally, so the shard never blocks — it goes straight back
// to serving requests. The disk stages its own copy of the block, so
// appends may continue into the open block at once. sealed marks a
// block being written for the last time: the caller starts a new open
// block right after, so this one is given to the disk as the block
// itself, uncopied. The block the disk commits — this buffer, or on a
// replica the primary's identical block (AttachReplica) — becomes the
// cache's copy as it is, entering the cache when (and only when) this
// write completes.
func (sh *shard) flush(t *core.Thread, sealed bool) {
	sh.replShipOut(t) // the records riding this flush ship to the replica now
	d := sh.newDiskDone(t, "flushed")
	d.batch, sh.waiters = sh.waiters, d.batch
	sh.dirty = 0
	sh.m.FlushesStarted++
	sh.m.BatchSize.Add(uint64(len(d.batch)))
	d.at, d.block, d.sealed = sh.now(), sh.openBlock, sealed
	sh.m.flight.Record(d.at, "flush", "", uint64(len(d.batch)), uint64(d.block))
	if sealed {
		d.data = sh.open
	}
	sh.disk.Program(t, blockdev.Request{Op: blockdev.Write, Block: d.block, Data: sh.open, Give: sealed}, d.done)
}

// flushed is the disk completion interrupt: the records carried by the
// write are durable, so their acknowledgements go out now. A failed
// write fail-stops the shard instead — the in-memory index and cache
// refer to records the platters never got, so continuing to serve would
// hand out state a restart provably diverges from.
func (sh *shard) flushed(t *core.Thread, d *diskDone) {
	sh.m.FlushesDone++
	sh.m.FlushedRecords += uint64(len(d.batch))
	sh.m.FlushLatency.Add(sh.now() - d.at)
	if !d.ok {
		// Name the invariant path in the ring before the drain rewrites
		// it: a failed log write is the disk-fault fail-stop route, and
		// the chaos matrix asserts the route, not just the outcome.
		sh.m.flight.Record(sh.now(), "write-fail", "", uint64(len(d.batch)), uint64(d.block))
		sh.nackBatch(t, d.batch, d.err)
		sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: log write: %s", sh.id, d.err))
		return
	}
	if sh.failed != "" {
		// A straggler flush completing after fail-stop: its records are
		// durable, but the shard is condemned — nack and let recovery
		// sort out the truth from the log.
		sh.nackBatch(t, d.batch, sh.failed)
		return
	}
	if sh.flushHeld && sh.m.FlushesDone == sh.m.FlushesStarted {
		// The disk holds none of this shard's writes: issue the held
		// flush before the acks below, so the disk is busy again while
		// they go out.
		sh.flushHeld = false
		if sh.dirty > 0 {
			sh.flush(t, false)
		}
	}
	if d.sealed {
		sh.cache.put(d.block, d.data)
	}
	if sh.anySynced() {
		// Quorum mode: local durability is half the vote. Park the acks
		// (in capture order — flushes complete in issue order) until a
		// majority of the replicas' cumulative acks cover them. Before
		// any bootstrap image completes, writes ack at local flush
		// instead — the shard is still serving under its pre-attach
		// contract until an image completes.
		for _, pw := range d.batch {
			if pw.reply != nil {
				sh.replWait.Push(pw)
			} else {
				sh.ack(t, pw, false)
			}
		}
		sh.drainQuorum(t)
	} else {
		for _, pw := range d.batch {
			if pw.repl {
				// Replica side: this ack IS the durability receipt —
				// the sequence it covers is now on our platters, so
				// replica reads parked on it may serve.
				if a := pw.res.(*ReplAck); a.Seq > sh.replDurable {
					sh.replDurable = a.Seq
				}
				if pw.reply != nil {
					pw.reply.Send(t, pw.res)
				}
				continue
			}
			sh.ack(t, pw, false)
		}
		sh.drainReplReads(t)
	}
	sh.maybeCommitEpoch(t)
}

// ack completes a client write — at majority quorum, or at local
// durability (the solo/syncing contract): its terminal counters fire
// and it leaves the in-flight gauge.
func (sh *shard) ack(t *core.Thread, pw pendingWrite, quorum bool) {
	sh.m.AckedWrites++
	if quorum {
		sh.m.AckedQuorum++
	} else {
		sh.m.AckedLocal++
	}
	sh.m.writesInFlight--
	sh.refFree.Put(pw.refs, math.MaxInt)
	if pw.reply != nil {
		pw.reply.Send(t, pw.res)
	}
}

// nackBatch refuses every write a failed (or post-fail-stop straggler)
// flush carried. Replica-side applies nack without write-law counters —
// they were never counted as Puts.
func (sh *shard) nackBatch(t *core.Thread, batch []pendingWrite, err string) {
	for _, pw := range batch {
		if !pw.repl {
			sh.m.WriteErrors++
			sh.m.writesInFlight--
		}
		sh.refFree.Put(pw.refs, math.MaxInt)
		if pw.reply != nil {
			pw.reply.Send(t, pw.nackFor(err))
		}
	}
}

// failStop condemns the shard: every parked waiter is nacked and every
// subsequent request refused. Deterministic nack order (writers in
// arrival order, then quorum-parked writes in sequence order, then
// parked reads by block number) keeps seeded replay exact. No pending
// reply channel may be dropped — a client blocked on a deferred ack
// must get an error, never a hang (TestFailStopDrainsBlockedClients).
func (sh *shard) failStop(t *core.Thread, err string) {
	if sh.failed != "" {
		return
	}
	sh.failed = err
	sh.m.FailedShards++
	// Record the fail-stop in the ring: the machine dump FailStopHook
	// schedules ships it (ShardSnapshot.Flight), showing what the shard
	// was doing in its last moments.
	sh.m.flight.Record(sh.now(), "failstop", err, 0, 0)
	sh.comp = nil
	for _, r := range sh.repls {
		r.sync = nil
		r.out = nil
		r.queued = nil
	}
	sh.nackBatch(t, sh.waiters, err)
	sh.waiters = nil
	sh.nackBatch(t, sh.replWait.Live(), err)
	sh.replWait.Reset()
	for _, pr := range sh.replReads {
		// Parked replica reads were only ever in the in-flight gauge;
		// the nack is their terminal count.
		sh.m.ReadErrors++
		if pr.reply != nil {
			pr.reply.Send(t, sh.getErr(err))
		}
	}
	sh.replReads = nil
	for _, b := range detmap.Keys(sh.reads) {
		for _, pr := range sh.reads[b] {
			if pr.reply != nil {
				pr.reply.Send(t, sh.getErr(err))
			}
		}
		delete(sh.reads, b)
	}
	if sh.s.FailStopHook != nil {
		sh.s.FailStopHook(sh.id, err)
	}
}

// recover rebuilds the shard from its log device. The superblock's
// sealed epoch record picks the active region unambiguously; its region
// is replayed front to back, stopping at the first block not stamped
// with the epoch. Then the *other* region is probed for blocks stamped
// epoch+1 — durable survivors of a compaction that was in flight when
// the crash hit (copies of old records plus fresh writes redirected
// there). Replay is version-aware (a key's highest version wins), so
// the inter-region ordering is immaterial and stale tails from earlier
// region occupancies can never resurrect old state. If the compaction
// region held anything, the shard resumes the compaction exactly where
// the tail leaves off; otherwise appending resumes in the active
// region. Recovery runs as the shard's first message — it may block on
// the disk; requests queue behind it in FIFO order and are served
// against the recovered state.
func (sh *shard) recover(t *core.Thread) {
	rt := sh.s.rt
	irq := t.NewChan(fmt.Sprintf("store.%d.recover", sh.id), 1)
	from := t.Core()
	readBlock := func(b int) blockdev.Result {
		sh.disk.Program(t, blockdev.Request{Op: blockdev.Read, Block: b}, func(res blockdev.Result) {
			rt.InjectSend(irq, res, from)
		})
		v, _ := irq.Recv(t)
		return v.(blockdev.Result)
	}
	if sb := readBlock(0); sb.OK {
		sh.epoch = decSuper(sb.Data)
	}
	apply := func(b int, op byte, key string, valOff, vlen int, ver uint64) {
		if cur, ok := sh.idx[key]; ok && cur.ver > ver {
			return
		}
		switch op {
		case recPut:
			sh.idx[key] = loc{block: b, off: valOff, vlen: vlen, ver: ver}
		case recDel:
			sh.idx[key] = loc{block: b, ver: ver, dead: true}
		}
	}
	// replayRegion applies every record in epoch-stamped blocks of
	// epoch's region and returns the tail block (-1 if none), its
	// surviving bytes, and the number of blocks replayed.
	replayRegion := func(epoch uint64) (tailBlock int, tail []byte, blocks int) {
		r := sh.s.region(epoch)
		tailBlock = -1
		for b := r.Start; b < r.End(); b++ {
			res := readBlock(b)
			if !res.OK || blockEpoch(res.Data) != epoch {
				break
			}
			parsed := blockHeader
			for {
				op, key, valOff, vlen, ver, n := decRecord(res.Data, parsed)
				if n == 0 {
					break
				}
				apply(b, op, key, valOff, vlen, ver)
				parsed += n
				sh.m.Replayed++
			}
			if parsed == blockHeader {
				break // stamp matched by accident (epoch 0 = zeroes): never written
			}
			tailBlock, tail, blocks = b, res.Data[:parsed], blocks+1
		}
		return
	}
	aTail, aBytes, _ := replayRegion(sh.epoch)
	cTail, cBytes, cBlocks := replayRegion(sh.epoch + 1)
	sh.liveBytes = 0
	for k, l := range detmap.Sorted(sh.idx) {
		sh.liveBytes += recHeader + len(k)
		if !l.dead {
			sh.liveBytes += l.vlen
		}
	}
	sh.m.flight.Record(sh.now(), "recover", "", sh.m.Replayed, uint64(len(sh.idx)))
	if cBlocks > 0 {
		// Crash mid-compaction: the fresh region already holds durable
		// epoch+1 records. Keep them in place, append after them, and
		// finish the job — copy whatever still points into the old
		// region, then commit the epoch as usual.
		srcUsed := 0
		if aTail >= 0 {
			srcUsed = (aTail-sh.s.regionStart(sh.epoch))*sh.s.P.Disk.BlockSize + len(aBytes)
		}
		sh.openBlock, sh.open = cTail, reopen(cBytes, sh.s.P.Disk.BlockSize)
		sh.resumeCompaction(t, srcUsed)
		return
	}
	if aTail >= 0 {
		sh.openBlock, sh.open = aTail, reopen(aBytes, sh.s.P.Disk.BlockSize)
	} else {
		sh.openBlock, sh.open = sh.s.regionStart(sh.epoch), nil
	}
	sh.maybeCompact(t)
	// A replicated store recovered from disks bootstraps the replica
	// with a compacted image of what replay found (once any compaction
	// that just started above commits, epochDone re-attempts this).
	sh.maybeStartReplSync(t)
}
