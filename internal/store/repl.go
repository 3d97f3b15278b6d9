// Per-shard log replication: the store's durability story extended
// from disk loss to machine loss. Each primary shard streams its log
// records to replica shards on *other simulated machines*, reached
// over the ordinary internal/net wire (NIC, RSS, netstack shards,
// seeded delay/jitter/loss — each replica pays real cycles on its own
// cores), and a write is acknowledged only on quorum: the primary's
// group-commit flush AND a majority of the attached replicas' append
// acks must be durable. The deferral rides the existing
// kernel.Deferred discipline — a locally-durable write parks in
// replWait until enough replicas' cumulative acks cover its per-
// attachment sequence numbers, exactly like a flush interrupt or an
// rto re-entering the shard as a message.
//
// Replication generalises over N attachments (PR 8): every shard keeps
// a VECTOR of attachments, each with its own cumulative sequence space
// (the wire is per-attachment FIFO, so one counter per link suffices),
// and every captured write carries one sequence reference per
// attachment that existed at capture time. The ack rule is a majority
// vote over the attachment vector: a parked write releases when
// ⌈(N+1)/2⌉ attachments cover it — an attachment that never saw the
// write (it attached later) votes yes, because its bootstrap image was
// snapshotted after the write applied and therefore carries it.
//
// Bootstrap and catch-up ship a freshly compacted image, not the raw
// garbage-bearing log: when replication attaches to a shard that
// already carries state (a store recovered from disks), the shard
// walks a sorted snapshot of its index in bounded increments (the
// compaction sweep's discipline, including parking on cache-miss
// reads) and streams live records plus tombstones — one epoch's worth
// of truth, no garbage. Fresh writes issued mid-sync stream in
// sequence order around the sync batches; version-aware apply on the
// replica makes the overlap idempotent.
//
// Failover is recovery: kill the primary at any instant and any armed
// replica's disks hold every acknowledged write (the client ack
// happened after a majority of flushes, by construction), so booting a
// store from a replica's platters recovers the acknowledged state via
// the existing version-aware replay. See DESIGN.md §store and §cluster
// for the crash/partition matrix.
package store

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/sim/fifo"
)

// ReplRecord is one replicated log record. The version travels with it:
// the replica applies records at the primary's versions (version-aware,
// so duplicates and sync/stream overlap are idempotent), never minting
// its own.
type ReplRecord struct {
	Op  byte // recPut or recDel
	Key string
	Val []byte
	Ver uint64
}

// ReplBatch is one primary shard's replication message: the records of
// one group commit (or one bootstrap-sync increment), plus the shard's
// committed region epoch so the replica can follow the primary's
// superblock epoch switches. Seq is the replication sequence of the
// LAST record in the batch; batches from one shard ship in sequence
// order on one connection, so a cumulative ack of Seq covers every
// record the shard ever shipped up to it — which is also how bootstrap
// completion is tracked: the primary remembers the sequence its image
// completed at (syncEndSeq) and compares the cumulative ack against it,
// so the batch needs no sync markers of its own.
//
// Tail and Image are the lag advertisement for replica reads: Tail is
// the primary's last ASSIGNED sequence at ship time (>= Seq whenever
// records have been captured but not yet flushed), and Image reports
// that the shard's bootstrap image is complete up to Seq — a replica
// must not serve reads from a partial image, and bounds its staleness
// by primTail − applied (see replica_read.go and DESIGN.md).
//
// A batch crosses the replication wire as a *ReplBatch record from the
// primary store's free list, naming that list (pool), and its one
// consumer, ServeReplica, copies it out and hands the record back
// (sim.TakeBack) — net.Packet's rule. The transport may still hold
// the record to retransmit it, but a retransmitted copy of a delivered
// packet is dropped unread by the receiver's flow, so the reuse is
// never seen.
type ReplBatch struct {
	Shard int
	Seq   uint64
	Tail  uint64
	Image bool
	Epoch uint64
	Recs  []ReplRecord

	pool *sim.FreeList[ReplBatch] // the free list a record on the wire came from
}

// MsgBytes implements core.Sized.
func (b ReplBatch) MsgBytes() int {
	n := 49 // shard + seq + tail + image + epoch
	for _, r := range b.Recs {
		n += 17 + len(r.Key) + len(r.Val)
	}
	return n
}

// WireBytes is the batch's simulated size on the wire.
func (b ReplBatch) WireBytes() int { return b.MsgBytes() }

// ReplAck is the replica's durability receipt: every record with
// sequence <= Seq is on the replica's platters. A non-empty Err means
// the replica shard fail-stopped; the primary treats that attachment
// as lost (majority rules decide whether the shard survives it).
//
// Like a batch, an ack travels as a *ReplAck record from the replica
// store's free list (see shard.replAck); the primary's endpoint hook is
// its one consumer and takes it back.
type ReplAck struct {
	Shard int
	Seq   uint64
	Err   string

	pool *sim.FreeList[ReplAck] // the free list the record came from
}

// MsgBytes implements core.Sized.
func (a ReplAck) MsgBytes() int { return 24 + len(a.Err) }

// WireBytes is the ack's simulated wire size.
func (a ReplAck) WireBytes() int { return a.MsgBytes() }

// The wire hooks re-enter the shard as messages, each carrying the
// attachment (*replShard) it belongs to: a shard that detached from a
// failed attachment and re-attached to a fresh replica must ignore
// stale events from the old endpoint — a late OnFail from a connection
// the shard already abandoned must not condemn the new quorum.

// replAttach asks a shard to adopt a prepared attachment (the ATTACH
// control path; see lifecycle.go).
type replAttach struct{ r *replShard }

// MsgBytes implements core.Sized.
func (a replAttach) MsgBytes() int { return 8 }

// replOpenMsg reports the attachment's connection handshake complete.
type replOpenMsg struct{ r *replShard }

// MsgBytes implements core.Sized.
func (m replOpenMsg) MsgBytes() int { return 8 }

// replAckMsg carries a replica durability receipt into the shard.
type replAckMsg struct {
	r *replShard
	a ReplAck
}

// MsgBytes implements core.Sized.
func (m replAckMsg) MsgBytes() int { return 8 + m.a.MsgBytes() }

// replFailMsg reports a dead replication connection (endpoint gave up
// or the replica closed on us).
type replFailMsg struct {
	r   *replShard
	err string
}

// MsgBytes implements core.Sized.
func (m replFailMsg) MsgBytes() int { return 24 + len(m.err) }

// replAdvertMsg is the deferred tail-advertisement timer firing.
type replAdvertMsg struct{ r *replShard }

// MsgBytes implements core.Sized.
func (m replAdvertMsg) MsgBytes() int { return 8 }

// replSyncMsg is the deferred bootstrap-sweep increment firing for one
// attachment (N attachments can be syncing concurrently, each with its
// own sweep).
type replSyncMsg struct{ r *replShard }

// MsgBytes implements core.Sized.
func (m replSyncMsg) MsgBytes() int { return 8 }

// replTxCycles is the primary-side descriptor/DMA cost charged per
// shipped batch (the shard programs its NIC like the netstack does);
// the payload additionally costs bytes>>3, the machine's message rate.
const replTxCycles = 1200

// replShard is the primary-side state of one shard's attachment to one
// replica machine. Only the shard's handler thread touches it (hook
// callbacks re-enter the shard as "replopen"/"replack"/"replfail"
// messages). Each attachment is an independent sequence space: the
// wire is per-attachment FIFO, so the cumulative ack is sound per
// attachment and needs no cross-attachment coordination.
type replShard struct {
	rm     *ReplicaMachine // the machine this attachment streams to
	ep     *net.Endpoint
	open   bool        // handshake with the replica machine completed
	queued []ReplBatch // ships deferred until the connection opens

	lastSeq  uint64       // last replication sequence assigned
	lastShip uint64       // last sequence put on the wire (advert floor)
	ackedSeq uint64       // cumulative replica-durable sequence
	out      []ReplRecord // records captured since the last ship
	// shipped holds the record buffers of data batches on the wire, in
	// sequence order, until the cumulative ack covers their Seq: before
	// that the transport may still hold the payload to retransmit it.
	// spare holds buffers released that way, for the batches to come.
	shipped fifo.Queue[shippedRecs]
	spare   sim.BufList[ReplRecord]

	sync       *replSync // in-flight bootstrap sweep, nil when idle
	synced     bool      // the replica holds a complete image
	syncEndSeq uint64    // sequence the bootstrap image completed at

	// quorum marks the attachment ARMED (synced AND the cumulative ack
	// covers syncEndSeq): it counts toward the majority every write ack
	// waits for, and losing it shrinks the armed set — fail-stop only
	// when the survivors can no longer form a majority. Before it, the
	// attachment is catch-up state and a loss merely detaches it.
	quorum bool

	advertArmed bool // a deferred "repladvert" self-message is in flight
	// The advert timer's callback is built once per attachment;
	// advertFrom is the core that armed the pending timer.
	advertFire func()
	advertFrom int
}

// shippedRecs is a shipped data batch's record buffer and the sequence
// whose cumulative ack releases it.
type shippedRecs struct {
	seq  uint64
	recs []ReplRecord
}

// replSpareBufs bounds an attachment's spare record buffers: enough for
// the batches a steady stream keeps in flight, so a burst's backlog is
// not kept once it drains.
const replSpareBufs = 4

// seqRef is one write's sequence reference for one attachment: the
// replication sequence the write was captured at on that attachment's
// stream. A parked write holds one ref per attachment that existed at
// capture time; attachments with no ref carry the write in their
// bootstrap image instead.
type seqRef struct {
	r   *replShard
	seq uint64
}

// replSync is one in-flight bootstrap/catch-up sweep: a sorted
// snapshot of the index walked in bounded increments, each a deferred
// "replsync" self-message — the compaction sweep's discipline, reused
// for shipping a compacted image over the wire instead of into the
// device's other region.
type replSync struct {
	keys      []string
	next      int
	waitBlock int // source block a parked increment needs (-1 = none)
}

// dialReplica builds one shard's attachment: the endpoint to rm's
// replication port, with hooks that re-enter the shard as messages
// carrying the attachment identity (a stale hook from an abandoned
// attachment is ignored by the handlers).
func (s *Store) dialReplica(rm *ReplicaMachine, i int) *replShard {
	r := &replShard{rm: rm}
	svc := s.svc
	r.advertFire = func() {
		svc.Inject(svc.Shard(i), kernel.Request{Op: "repladvert", Key: i, Arg: replAdvertMsg{r: r}}, r.advertFrom)
	}
	r.ep = rm.NW.Dial(rm.Port, net.EndpointHooks{
		OnOpen: func(*net.Endpoint) {
			svc.Inject(svc.Shard(i), kernel.Request{Op: "replopen", Key: i, Arg: replOpenMsg{r: r}}, 0)
		},
		OnMessage: func(_ *net.Endpoint, payload core.Msg, _ int) {
			if a, ok := payload.(*ReplAck); ok {
				svc.Inject(svc.Shard(i), kernel.Request{Op: "replack", Key: i, Arg: s.acks.Hold(replAckMsg{r: r, a: sim.TakeBack(a, &a.pool)})}, 0)
			}
		},
		OnClose: func(*net.Endpoint) {
			svc.Inject(svc.Shard(i), kernel.Request{
				Op: "replfail", Key: i, Arg: replFailMsg{r: r, err: "store: replication connection closed"},
			}, 0)
		},
		OnFail: func(*net.Endpoint) {
			svc.Inject(svc.Shard(i), kernel.Request{
				Op: "replfail", Key: i, Arg: replFailMsg{r: r, err: "store: replication connection failed (retries exhausted)"},
			}, 0)
		},
	})
	return r
}

// Replicated reports whether any replica machine is attached.
func (s *Store) Replicated() bool { return len(s.replicas) > 0 }

// ReplCaughtUp reports whether every shard's every attachment has
// reached quorum: all bootstrap images are complete AND acknowledged —
// from this point on, a primary loss loses nothing acknowledged,
// including pre-replication state. (Writes issued while an image was
// still streaming were assigned sequences at or below its syncEndSeq,
// so the cumulative ack that completes the image covers them too —
// killing a primary the instant this flips is safe.)
func (s *Store) ReplCaughtUp() bool {
	for _, sh := range s.shards {
		if len(sh.repls) == 0 {
			return false
		}
		for _, r := range sh.repls {
			if !r.quorum {
				return false
			}
		}
	}
	return len(s.shards) > 0
}

// --- primary-side shard machinery ---

// hasRepl reports whether r is a live attachment of this shard — the
// staleness filter every hook-delivered message passes through.
func (sh *shard) hasRepl(r *replShard) bool {
	for _, o := range sh.repls {
		if o == r {
			return true
		}
	}
	return false
}

// quorumNeed is the majority threshold over the shard's attachment
// vector: how many replica acks a write needs (on top of the primary's
// own flush) before its quorum ack may release. ⌈(N+1)/2⌉ of N
// attachments — 1 of 1, 1 of 2, 2 of 3, 2 of 4.
func (sh *shard) quorumNeed() int {
	if len(sh.repls) == 0 {
		return 0
	}
	return (len(sh.repls) + 1) / 2
}

// lag is the attachment's captured-but-unacked gap in sequences.
func (r *replShard) lag() uint64 {
	if r.lastSeq > r.ackedSeq {
		return r.lastSeq - r.ackedSeq
	}
	return 0
}

// armedCount is how many attachments are armed (at quorum).
func (sh *shard) armedCount() int {
	n := 0
	for _, r := range sh.repls {
		if r.quorum {
			n++
		}
	}
	return n
}

// anySynced reports whether at least one attachment holds a complete
// image — the condition under which fresh write acks park for the
// replica vote instead of releasing at local flush.
func (sh *shard) anySynced() bool {
	for _, r := range sh.repls {
		if r.synced {
			return true
		}
	}
	return false
}

// votes counts the attachments whose durable state covers pw. An
// attachment holding a ref votes when its cumulative ack reaches the
// ref's sequence. An attachment with NO ref votes yes: the write was
// captured before that attachment existed, so it applied to the index
// before the attachment's bootstrap snapshot was taken — the image
// carries it — and the write's own ack contract predates the
// attachment anyway (this is also exactly the old single-replica
// behaviour, where pre-attach writes carried sequence 0 and drained
// against any cumulative ack).
func votes(repls []*replShard, pw pendingWrite) int {
	n := 0
	for _, r := range repls {
		ref, ok := findRef(pw.refs, r)
		if !ok || ref <= r.ackedSeq {
			n++
		}
	}
	return n
}

func findRef(refs []seqRef, r *replShard) (uint64, bool) {
	for _, ref := range refs {
		if ref.r == r {
			return ref.seq, true
		}
	}
	return 0, false
}

// replCapture assigns the next replication sequence on EVERY attachment
// to the record just appended to the open block, whose value is vlen
// bytes long, and buffers it for the next ship (at the group-commit
// flush, so replication batches ride the same cadence as the disk).
// The value shipped is the record's own bytes in the open block, which
// never change once written (see shard.open), not the writer's buffer:
// the batch ships after this call returns, and a pipelining writer may
// legitimately reuse its buffer the moment the append is in the
// primary's open block — the replicas must log the bytes the primary
// logged, not whatever the buffer holds later. Returns the write's
// per-attachment sequence refs (nil when replication is off), which go
// back to the shard's free list when the write is answered.
// Compaction's re-appends never come through here: the replicas
// already hold those records.
func (sh *shard) replCapture(t *core.Thread, op byte, key string, vlen int, ver uint64) []seqRef {
	if len(sh.repls) == 0 {
		return nil
	}
	rec := ReplRecord{Op: op, Key: key, Ver: ver}
	if n := len(sh.open); vlen > 0 {
		rec.Val = sh.open[n-vlen : n : n]
	}
	refs := sh.refFree.Get()
	for _, r := range sh.repls {
		r.lastSeq++
		r.out = append(r.out, rec)
		refs = append(refs, seqRef{r: r, seq: r.lastSeq})
		sh.armAdvert(t, r) // the tail moved: advertise it before the flush ships it
	}
	return refs
}

// armAdvert schedules a tail advertisement (once per attachment) —
// captured records sit in r.out for up to a flush interval before they
// ship, and the replica can only bound its read staleness by tails it
// has been told about. The advert is a deferred self-message like
// "flush" and "rto".
func (sh *shard) armAdvert(t *core.Thread, r *replShard) {
	if r.advertArmed || !r.synced {
		return // during bootstrap the image gate blocks replica reads anyway
	}
	r.advertArmed = true
	r.advertFrom = t.Core()
	sh.s.rt.Eng.After(sh.s.P.ReplAdvertiseCycles, r.advertFire)
}

// replAdvert ships an empty batch advertising the current tail: Seq is
// the last sequence already on the wire (cumulative-ack safe), Tail the
// last assigned. The replica learns how far behind it is without
// waiting for the group commit that will carry the records themselves.
func (sh *shard) replAdvert(t *core.Thread, m replAdvertMsg) {
	r := m.r
	if !sh.hasRepl(r) || sh.failed != "" {
		return // a timer armed by an attachment this shard abandoned
	}
	r.advertArmed = false
	if len(r.out) == 0 {
		return // the flush shipped (and advertised) the tail already
	}
	sh.m.ReplAdverts++
	sh.replSend(t, r, ReplBatch{Shard: sh.id, Seq: r.lastShip, Epoch: sh.epoch})
	sh.armAdvert(t, r) // keep advertising while records remain unshipped
}

// replShipOut ships every attachment's buffered records as one batch
// each. Ship order is sequence order — replSyncStep calls this before
// assigning its own sequences, which is what makes each attachment's
// cumulative ack sound.
func (sh *shard) replShipOut(t *core.Thread) {
	for _, r := range sh.repls {
		sh.replShipOutOne(t, r)
	}
}

func (sh *shard) replShipOutOne(t *core.Thread, r *replShard) {
	if len(r.out) == 0 {
		return
	}
	b := ReplBatch{Shard: sh.id, Seq: r.lastSeq, Epoch: sh.epoch, Recs: r.out}
	r.shipped.Push(shippedRecs{seq: b.Seq, recs: r.out})
	r.out = r.spare.Get()
	sh.replSend(t, r, b)
}

// releaseShipped recycles the record buffers of the data batches r's
// cumulative ack now covers: the replica has applied them, so no copy
// the transport still holds will ever be delivered again.
func (r *replShard) releaseShipped() {
	for r.shipped.Len() > 0 && r.shipped.Front().seq <= r.ackedSeq {
		r.spare.Put(r.shipped.Pop().recs, replSpareBufs)
	}
}

// replSend puts one batch on r's wire (or queues it until the
// connection opens), charging the shard the NIC programming cost. The
// lag advertisement travels on every batch: Tail is the attachment's
// tail at this instant, Image whether its bootstrap image is complete.
func (sh *shard) replSend(t *core.Thread, r *replShard, b ReplBatch) {
	b.Tail = r.lastSeq
	b.Image = r.synced
	if b.Seq > r.lastShip {
		r.lastShip = b.Seq
	}
	sh.m.ReplBatches++
	sh.m.ReplRecords += uint64(len(b.Recs))
	sh.m.flight.Record(sh.now(), "repl-ship", "", b.Seq, uint64(len(b.Recs)))
	t.Compute(replTxCycles + uint64(b.WireBytes())>>3)
	if !r.open {
		r.queued = append(r.queued, b)
		return
	}
	sh.ship(r, b)
}

// ship puts b on r's wire as a record from the store's batch pool; the
// replica's ServeReplica hands the record back (sim.TakeBack).
func (sh *shard) ship(r *replShard, b ReplBatch) {
	b.pool = &sh.s.batches
	r.ep.Send(sh.s.batches.Hold(b), b.WireBytes())
}

// replOpen is the handshake-complete message: release everything queued
// behind the connection setup.
func (sh *shard) replOpen(t *core.Thread, m replOpenMsg) {
	r := m.r
	if !sh.hasRepl(r) || sh.failed != "" {
		return
	}
	r.open = true
	for _, b := range r.queued {
		sh.ship(r, b)
	}
	r.queued = nil
}

// replAckIn lands one replica's cumulative durability receipt, flips
// the attachment to armed when the receipt covers its bootstrap image,
// and releases every locally-durable write that now holds a majority of
// replica votes.
func (sh *shard) replAckIn(t *core.Thread, m replAckMsg) {
	r := m.r
	if !sh.hasRepl(r) {
		return // a receipt from an attachment this shard already abandoned
	}
	if m.a.Err != "" {
		sh.replLost(t, r, fmt.Sprintf("replica: %s", m.a.Err))
		return
	}
	if sh.failed != "" {
		return
	}
	sh.m.ReplAcks++
	sh.m.flight.Record(sh.now(), "repl-ack", "", m.a.Seq, 0)
	if m.a.Seq > r.ackedSeq {
		r.ackedSeq = m.a.Seq
	}
	r.releaseShipped()
	sh.maybeQuorum(t, r)
	sh.drainQuorum(t)
}

// maybeQuorum arms an attachment once the replica's cumulative ack
// covers its bootstrap image: the heal is complete for this attachment
// and it counts toward every write's majority from here on.
func (sh *shard) maybeQuorum(t *core.Thread, r *replShard) {
	if r.quorum || !r.synced || r.ackedSeq < r.syncEndSeq {
		return
	}
	r.quorum = true
	sh.m.ReplHeals++
	sh.m.flight.Record(sh.now(), "quorum", "", r.syncEndSeq, 0)
}

// drainQuorum releases acks whose writes are durable on the primary AND
// a majority of the attached replicas: replWait holds them in capture
// order (flushes complete in issue order on the serial disk), and votes
// only grow between attachment changes, so a prefix check suffices.
func (sh *shard) drainQuorum(t *core.Thread) {
	need := sh.quorumNeed()
	for sh.replWait.Len() > 0 && votes(sh.repls, sh.replWait.Front()) >= need {
		sh.ack(t, sh.replWait.Pop(), true)
	}
}

// replFailed handles a dead replication connection: the majority rule
// in replLost (lifecycle.go) decides between tolerating the loss,
// detaching, and fail-stop.
func (sh *shard) replFailed(t *core.Thread, m replFailMsg) {
	if !sh.hasRepl(m.r) {
		return // the wire died under an attachment already abandoned
	}
	sh.replLost(t, m.r, m.err)
}

// replEpochSwitch streams the shard's committed region-epoch switch as
// a control batch to every attachment (no records; Seq = last assigned,
// all of which have shipped). The replicas follow the primary's
// superblock history and treat the switch as a compaction hint of their
// own.
func (sh *shard) replEpochSwitch(t *core.Thread) {
	if sh.failed != "" {
		return
	}
	sh.replShipOut(t) // keep ship order = sequence order
	for _, r := range sh.repls {
		sh.replSend(t, r, ReplBatch{Shard: sh.id, Seq: r.lastSeq, Epoch: sh.epoch})
	}
}

// --- bootstrap / catch-up sync ---

// maybeStartReplSync begins streaming the compacted bootstrap image to
// every attachment that still needs one — only once no compaction is in
// flight (locations must not move under the sweep; epochDone re-calls
// this when a recovery-resumed compaction commits).
func (sh *shard) maybeStartReplSync(t *core.Thread) {
	for _, r := range sh.repls {
		sh.maybeStartReplSyncFor(t, r)
	}
}

func (sh *shard) maybeStartReplSyncFor(t *core.Thread, r *replShard) {
	if r.synced || r.sync != nil || sh.comp != nil || sh.failed != "" {
		return
	}
	sh.m.ReplSyncs++
	sh.m.flight.Record(sh.now(), "sync-start", "", uint64(len(sh.idx)), 0)
	r.sync = &replSync{keys: sortedKeys(sh.idx), waitBlock: -1}
	sh.scheduleReplSync(t, r)
}

// scheduleReplSync arms the next sync increment for one attachment as a
// deferred self-message, the compaction sweep's pacing.
func (sh *shard) scheduleReplSync(t *core.Thread, r *replShard) {
	svc, id, from := sh.s.svc, sh.id, t.Core()
	rt := sh.s.rt
	rt.Eng.After(sh.s.P.CompactStepCycles, func() {
		svc.Inject(svc.Shard(id), kernel.Request{Op: "replsync", Key: id, Arg: replSyncMsg{r: r}}, from)
	})
}

// replSyncStep streams up to CompactBatch index entries on one
// attachment: live records with their values (from the open block, the
// cache, or parked on a disk read like any GET miss), tombstones as
// DELETE records — the version floor must survive on the replica too.
// Requests are served between increments; fresh writes stream around
// the sync in sequence order. While a compaction is in flight the sweep
// pauses — record locations are moving under it — and epochDone resumes
// it where it left off (the snapshot's remaining keys are looked up
// fresh each step, so the moved locations are simply picked up; pausing
// rather than restarting means sustained churn can delay catch-up but
// never discard its progress).
func (sh *shard) replSyncStep(t *core.Thread, r *replShard) {
	if !sh.hasRepl(r) || r.sync == nil || sh.failed != "" || sh.comp != nil {
		return
	}
	sy := r.sync
	if sy.waitBlock >= 0 {
		return
	}
	sh.replShipOutOne(t, r) // fresh writes captured since the last ship go first
	var recs []ReplRecord
	ship := func() {
		if len(recs) == 0 {
			return
		}
		sh.m.ReplSyncRecords += uint64(len(recs))
		sh.replSend(t, r, ReplBatch{Shard: sh.id, Seq: r.lastSeq, Epoch: sh.epoch, Recs: recs})
		recs = nil
	}
	done := 0
	for done < sh.s.P.CompactBatch && sy.next < len(sy.keys) {
		k := sy.keys[sy.next]
		l, ok := sh.idx[k]
		if !ok {
			sy.next++
			continue
		}
		if l.dead {
			r.lastSeq++
			recs = append(recs, ReplRecord{Op: recDel, Key: k, Ver: l.ver})
			sy.next++
			done++
			continue
		}
		var data []byte
		if l.block == sh.openBlock {
			data = sh.open
		} else if cached, hit := sh.cache.get(l.block); hit {
			data = cached
		} else {
			// Park the sweep on the block read (ship what we have so the
			// parked sequences are not held back); readDone resumes it.
			ship()
			sy.waitBlock = l.block
			sh.parkRead(t, l.block, pendingRead{})
			return
		}
		r.lastSeq++
		// The value ships as a view of its block, like a GET's (see
		// GetResult): the replica copies it into its own log.
		recs = append(recs, ReplRecord{Op: recPut, Key: k, Val: data[l.off : l.off+l.vlen : l.off+l.vlen], Ver: l.ver})
		sy.next++
		done++
	}
	if sy.next < len(sy.keys) {
		ship()
		sh.scheduleReplSync(t, r)
		return
	}
	// Image complete: mark synced BEFORE the final ship so the batch
	// that completes the image advertises Image=true — the replica may
	// start serving bounded-lag reads the moment it lands.
	r.synced = true
	r.syncEndSeq = r.lastSeq
	if len(recs) > 0 {
		ship()
	} else {
		// The last increment found only already-shipped keys; tell the
		// replica the image is complete with an empty advertisement.
		sh.replSend(t, r, ReplBatch{Shard: sh.id, Seq: r.lastShip, Epoch: sh.epoch})
	}
	r.sync = nil
	sh.maybeQuorum(t, r)
	// No compaction waits for a sync (one pauses the sync, never the
	// reverse): this re-runs the high-water check every write runs. It
	// stays: a compaction started here schedules engine events and a
	// skip counted here shows in the counters, so dropping the call
	// could move pinned numbers.
	sh.maybeCompact(t)
}

// --- replica-side apply ---

// applyRepl is the replica shard's handler: append each record at the
// primary's version, version-aware (a duplicate or sync/stream overlap
// is skipped), and defer the cumulative ack until the flush covering
// the appends completes — the ack IS the replica's durability receipt,
// so it rides the same group commit as everything else. Every answer
// is a *ReplAck record (replAck), parked in the waiter when deferred.
func (sh *shard) applyRepl(t *core.Thread, b ReplBatch, reply *core.Chan) core.Msg {
	if sh.failed != "" {
		return sh.replAck(b.Seq, sh.failed)
	}
	// Lag advertisement: remember the furthest primary tail ever told to
	// us, and whether the bootstrap image is complete — the replica-read
	// gates (replica_read.go) consult both.
	if b.Tail > sh.primTail {
		sh.primTail = b.Tail
	}
	if b.Seq > sh.primTail {
		sh.primTail = b.Seq
	}
	if b.Image {
		sh.imageComplete = true
	}
	if b.Epoch > sh.primaryEpoch {
		// The primary committed a region-epoch switch; note it and treat
		// it as a hint that garbage is accumulating here too.
		sh.primaryEpoch = b.Epoch
		sh.maybeCompact(t)
	}
	appended := false
	for _, rec := range b.Recs {
		cur, ok := sh.idx[rec.Key]
		if ok && cur.ver >= rec.Ver {
			sh.m.ReplStale++
			continue
		}
		if recHeader+len(rec.Key)+len(rec.Val)+1+blockHeader > sh.s.P.Disk.BlockSize {
			sh.failStop(t, fmt.Sprintf("store: replica shard %d fail-stop: record for %q exceeds block size", sh.id, rec.Key))
			return sh.replAck(b.Seq, sh.failed)
		}
		if !sh.append(t, rec.Op, rec.Key, rec.Val, rec.Ver) {
			sh.failStop(t, fmt.Sprintf("store: replica shard %d fail-stop: log region full", sh.id))
			return sh.replAck(b.Seq, sh.failed)
		}
		sh.applyRecord(rec.Op, rec.Key, len(rec.Val), rec.Ver, b.Seq)
		sh.m.ReplApplied++
		appended = true
	}
	if b.Seq > sh.replApplied {
		sh.replApplied = b.Seq
	}
	if !appended {
		// Nothing new: every record was a duplicate of one already
		// applied — and, batches being applied in order by a serving
		// thread that waits for each ack, already durable. Advancing the
		// durable horizon may release replica reads parked on it.
		if b.Seq > sh.replDurable {
			sh.replDurable = b.Seq
			sh.drainReplReads(t)
		}
		return sh.replAck(b.Seq, "")
	}
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, repl: true, res: sh.replAck(b.Seq, "")})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

// replAck returns the replica shard's receipt for seq as a record from
// the store's ack pool, which the primary's endpoint hook hands back
// (sim.TakeBack). A parked receipt that fails is rewritten in place
// (pendingWrite.nackFor).
func (sh *shard) replAck(seq uint64, err string) *ReplAck {
	return sh.s.replAcks.Hold(ReplAck{Shard: sh.id, Seq: seq, Err: err, pool: &sh.s.replAcks})
}

// ServeReplica pumps one replication connection on the replica
// machine: apply each batch (a store call that blocks until its records
// are durable), then send the cumulative ack back. It consumes each
// batch record the wire delivers, copying it into the store's own
// request record before the call, and puts the *ReplAck the shard
// answered with on the wire as it is, reading what it needs of it
// first: once sent, the record is the primary's to take back. A
// fail-stopped replica shard answers with an error ack and the loop
// ends — the primary treats the attachment as lost on seeing it.
func ServeReplica(t *core.Thread, c *net.Conn, s *Store) {
	for {
		v, ok := c.Recv(t)
		if !ok {
			break
		}
		pb, ok := v.(*ReplBatch)
		if !ok {
			continue
		}
		b := sim.TakeBack(pb, &pb.pool)
		ack := s.k.Call(t, "store", b.Shard, "repl", s.batches.Hold(b)).(*ReplAck)
		failed := ack.Err != ""
		c.Send(t, ack, ack.WireBytes())
		if failed {
			break
		}
	}
	c.Close(t)
}
