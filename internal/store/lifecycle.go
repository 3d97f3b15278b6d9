// The replication lifecycle: replication as a runtime state machine
// rather than a boot-time configuration. A store moves through
//
//	SOLO ──attach──▶ SYNCING ──images acked──▶ QUORUM
//	                    ▲                         │
//	                    │ attach         primary lost: boot
//	                    │                from a replica's platters
//	               FAILED-OVER ◀──────────────────┘
//
// and the loop closes: a failed-over (or plain solo) store attaches
// *fresh* replica machines while it is live and serving — the bootstrap
// sweep ships a compacted image per shard per attachment (repl.go),
// write acks upgrade from local-flush to majority quorum the moment an
// image is complete, and once every attachment's cumulative ack covers
// its image (ReplCaughtUp) the full durability contract is re-armed.
// The system returns to full durability instead of serving degraded
// forever.
//
// With N attachments per shard (PR 8) the states fold a vector:
//
//   - SOLO / FAILED-OVER: no attachments. Writes ack at local flush; a
//     machine loss loses the store (failed-over additionally means the
//     state was inherited from a dead primary's replica).
//   - SYNCING: at least one attachment's image is incomplete. Write
//     acks park for the majority vote as soon as ANY image is complete;
//     losing a syncing attachment DETACHES it — no client was promised
//     that attachment's durability, so reverting breaks no promise.
//   - QUORUM: every attachment armed. Write acks wait for the primary
//     flush plus ⌈(N+1)/2⌉ replica acks. Losing an ARMED attachment is
//     the majority rule's asymmetric edge: if the surviving armed set
//     can still form a majority of the pre-loss vector, the shard
//     TOLERATES the loss (detaches the dead attachment and keeps
//     serving — this is what lets an N-replica node shrug off a
//     minority kill); if it cannot, the shard fail-stops, because no
//     further write could honestly be acknowledged at quorum.
//
// Each shard walks the machine independently (its attachments, sync
// sweeps and acks are private, like everything else about a shard);
// Store.Lifecycle reports the aggregate and Store.LifecycleReport the
// per-replica rows.
package store

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
)

// Lifecycle states, as reported by Store.Lifecycle.
const (
	LifecycleSolo       = "solo"        // fresh boot, no replica: local-flush acks
	LifecycleFailedOver = "failed-over" // recovered from carried-over platters, no replica: degraded
	LifecycleSyncing    = "syncing"     // replica attached, bootstrap image incomplete on some shard
	LifecycleQuorum     = "quorum"      // every attachment armed on every shard, majority acks
	LifecycleFailed     = "failed"      // at least one shard fail-stopped
)

// lifecycleNames names the per-shard lifecycle codes (lifecycleCode).
var lifecycleNames = [...]string{LifecycleSolo, LifecycleFailedOver, LifecycleSyncing, LifecycleQuorum, LifecycleFailed}

// Lifecycle reports the store's replication lifecycle state: the fold
// of the per-shard codes (lifecycleCode). Any fail-stopped shard
// dominates; with no attachment anywhere the store is solo or failed-
// over; it is at quorum only when every shard is (a shard that detached
// mid-sync leaves the store reported as syncing — not at quorum — until
// a fresh attach heals it). A shard not yet built counts as having no
// attachment. Call from the simulation host between run slices, like
// the stats counters.
func (s *Store) Lifecycle() string {
	lo, hi := uint64(4), uint64(0)
	for _, sh := range s.shards {
		code := uint64(0)
		switch {
		case sh != nil:
			code = sh.lifecycleCode()
		case s.recovered:
			code = 1
		}
		lo, hi = min(lo, code), max(hi, code)
	}
	switch {
	case hi == 4 || hi <= 1: // failed, or solo/failed-over alike on every shard
		return lifecycleNames[hi]
	case lo == 3:
		return LifecycleQuorum
	}
	return LifecycleSyncing
}

// ReplicaStatus is one attached replica machine's row in the per-
// replica lifecycle report: how far each of its shard attachments has
// come, and the worst captured-but-unacked lag across them. A healing
// minority is visible here (and in the per-slot telemetry gauges) even
// while the folded aggregate still reads "syncing".
type ReplicaStatus struct {
	Slot   int    `json:"slot"` // attach order among live attachments
	Port   int    `json:"port"` // the replica machine's replication port
	State  string `json:"state"`
	Shards int    `json:"shards"` // shard attachments still live
	Synced int    `json:"synced"` // ...with a complete bootstrap image
	Armed  int    `json:"armed"`  // ...armed (image acked, counting toward quorum)
	MaxLag uint64 `json:"max_lag"`
}

// LifecycleReport returns one row per attached replica machine, in
// attach order. Host-side read, like Counters. The rows live in one
// buffer per store, which the host polls every drive slice: they are
// valid until the next call.
func (s *Store) LifecycleReport() []ReplicaStatus {
	out := s.report[:0]
	for slot, rm := range s.replicas {
		st := ReplicaStatus{Slot: slot, Port: rm.Port}
		for _, sh := range s.shards {
			if sh == nil {
				continue
			}
			for _, r := range sh.repls {
				if r.rm != rm {
					continue
				}
				st.Shards++
				if r.synced {
					st.Synced++
				}
				if r.quorum {
					st.Armed++
				}
				st.MaxLag = max(st.MaxLag, r.lag())
			}
		}
		switch {
		case st.Shards == 0:
			st.State = "detached"
		case st.Armed == st.Shards:
			st.State = LifecycleQuorum
		default:
			st.State = LifecycleSyncing
		}
		out = append(out, st)
	}
	s.report = out
	return out
}

// AttachReplica attaches one more replica machine to a LIVE store — the
// ATTACH control path, callable N times for an N-replica quorum. Every
// shard dials a connection to rm's replication port and adopts the
// attachment as an ordinary message ("replattach", FIFO behind whatever
// the shard is doing, including a recovery replay): a shard that owns
// state starts the bootstrap sweep, an empty shard is synced by
// definition and the attachment arms immediately. From the moment any
// of a shard's images is complete, its write acks wait for the majority
// vote; ReplCaughtUp reports the whole store healed.
//
// Call alongside New for a replicated-from-birth store, or at any later
// point (between run slices, like the stats) to heal a solo, degraded
// or failed-over store. Panics if this machine is already attached or
// the shard counts differ — primary shard i streams to replica shard i,
// which the shared key hash guarantees once the counts match.
func (s *Store) AttachReplica(rm *ReplicaMachine) {
	if rm.KV.Shards() != s.Shards() {
		panic(fmt.Sprintf("store: replica has %d shards, primary %d — counts must match",
			rm.KV.Shards(), s.Shards()))
	}
	// s.replicas is the attachment guard: appended here, synchronously,
	// and an entry is removed only when the machine's LAST shard
	// attachment detaches (replLost) — so two back-to-back attaches of
	// the same machine cannot both slip past while the per-shard
	// "replattach" messages are still in flight.
	for _, have := range s.replicas {
		if have == rm {
			panic("store: this replica machine is already attached")
		}
	}
	s.replicas = append(s.replicas, rm)
	// The attach is a store-level control action; its count lives with
	// shard 0's metric set (RegisterEach built every shard before New
	// returned, so the slot is always populated).
	s.shards[0].m.ReplAttaches++
	for i := range s.shards {
		r := s.dialReplica(rm, i)
		s.svc.Inject(s.svc.Shard(i), kernel.Request{Op: "replattach", Key: i, Arg: replAttach{r: r}}, 0)
	}
}

// replAttachIn adopts an attachment on the shard's handler thread. The
// dial raced ahead on the wire; the handshake-complete and ack messages
// carry the attachment identity, so they land correctly whether they
// arrive before or after this does.
func (sh *shard) replAttachIn(t *core.Thread, m replAttach) {
	if sh.failed != "" || sh.hasRepl(m.r) {
		return
	}
	sh.repls = append(sh.repls, m.r)
	sh.m.flight.Record(sh.now(), "attach", "", uint64(len(sh.idx)), 0)
	if len(sh.idx) == 0 {
		// Nothing to bootstrap: the image is (vacuously) complete and
		// acknowledged, so the attachment arms at once — every write
		// from the first onward counts its vote.
		m.r.synced = true
		m.r.quorum = true
		return
	}
	// The shard owns state: stream a compacted image first. If a
	// compaction is in flight the sweep starts at its epoch commit
	// (epochDone calls maybeStartReplSync).
	sh.maybeStartReplSyncFor(t, m.r)
}

// replLost is the replica-loss rule, the lifecycle's asymmetric edge,
// now a majority rule over the attachment vector:
//
//   - A SYNCING attachment lost: detach it. No client was promised its
//     durability; if it was the last attachment, writes parked for a
//     vote that can now never arrive release at their local ack — they
//     are locally durable, which is all the pre-quorum state promised.
//   - An ARMED attachment lost, survivors can still form a majority of
//     the PRE-LOSS vector: tolerate — detach the dead attachment and
//     keep serving. Every acked write held ⌈(N+1)/2⌉ replica copies, so
//     a minority of the N can die without betraying any ack.
//   - An ARMED attachment lost, survivors below the majority: fail-stop
//     (degrading silently would weaken the contract mid-flight).
func (sh *shard) replLost(t *core.Thread, r *replShard, err string) {
	if !sh.hasRepl(r) {
		return
	}
	if r.quorum {
		need := sh.quorumNeed() // majority of the pre-loss vector
		if sh.armedCount()-1 < need {
			// Record the invariant path before the fail-stop rewrites the
			// ring's tail: the chaos matrix asserts WHICH rule fired
			// (majority lost → fail-stop), not just that the run ended.
			sh.m.flight.Record(sh.now(), "quorum-lost", err, uint64(sh.armedCount()-1), uint64(need))
			sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: %s", sh.id, err))
			return
		}
		sh.m.ReplTolerated++
		sh.m.flight.Record(sh.now(), "tolerate", err, 0, 0)
	} else {
		sh.m.ReplDetached++
		sh.m.flight.Record(sh.now(), "detach", err, 0, 0)
	}
	sh.detachRepl(t, r)
}

// detachRepl removes one attachment from the shard's vector, releases
// or re-evaluates parked writes under the shrunken vector, and drops
// the machine from the store-level attachment list once its last shard
// detaches.
func (sh *shard) detachRepl(t *core.Thread, r *replShard) {
	keep := sh.repls[:0]
	for _, o := range sh.repls {
		if o != r {
			keep = append(keep, o)
		}
	}
	sh.repls = keep
	if len(sh.repls) == 0 {
		// Last attachment out: writes parked for a vote that can never
		// arrive release at local durability — exactly the pre-attach
		// contract — so these are AckedLocal terminals. The flight event
		// carries how many writes the release unparked: the chaos
		// no-client-hang gate reads it to confirm the heal path drained.
		sh.m.flight.Record(sh.now(), "repl-release", "", uint64(sh.replWait.Len()), 0)
		for sh.replWait.Len() > 0 {
			sh.ack(t, sh.replWait.Pop(), false)
		}
	} else {
		// The vector shrank, so the majority threshold may have dropped
		// and the dead attachment's missing vote no longer counts
		// against anyone: re-run the drain.
		sh.drainQuorum(t)
	}
	// Last shard out drops the store-level attachment entry: the
	// machine may be re-attached fresh.
	rm := r.rm
	if rm == nil {
		return
	}
	for _, o := range sh.s.shards {
		if o == nil {
			continue
		}
		for _, or := range o.repls {
			if or.rm == rm {
				return
			}
		}
	}
	keepRM := sh.s.replicas[:0]
	for _, m := range sh.s.replicas {
		if m != rm {
			keepRM = append(keepRM, m)
		}
	}
	sh.s.replicas = keepRM
}
