// Bounded-lag replica reads: the replica's version-correct index is
// read capacity, not just insurance. A GET served by the replica obeys
// two gates, both derived from the replication stream itself:
//
//   - Staleness. Every batch (and the between-flush "repladvert"
//     heartbeats) advertises the primary's tail sequence; the replica
//     refuses a read when primTail − replApplied exceeds the configured
//     bound (Params.ReplicaLagBound), and refuses everything until a
//     complete bootstrap image has landed (ReplBatch.Image). The bound
//     is therefore on *advertised* lag: true staleness adds at most one
//     advertisement interval plus one wire delay of records the replica
//     has not yet been told about — and a primary that dies or
//     partitions freezes primTail, so the replica keeps serving reads
//     within the frozen bound while a failed-over primary replays (no
//     leases in this model; DESIGN.md derives the bound).
//
//   - Durability. A version is served only once the replica's own
//     durable horizon (replDurable, advanced by the same group-commit
//     acks that feed the primary's quorum) covers the sequence it
//     arrived on: a read that beat the flush parks (kernel.Deferred,
//     like every other wait in this store) and drains when the flush
//     interrupt lands. A failover concurrent with the read — primary
//     destroyed, a new store booted from this replica's platters — can
//     therefore never lose data a replica read has returned.
package store

import (
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/net"
)

// Replica-read refusal errors (string-matched by clients that fall back
// to the primary).
const (
	// ErrReplicaSyncing refuses reads before a complete bootstrap image
	// has landed — a partial image would serve holes as "not found".
	ErrReplicaSyncing = "store: replica bootstrap image incomplete"
	// ErrReplicaLag refuses reads while the advertised primary tail is
	// more than ReplicaLagBound sequences ahead of the applied state.
	ErrReplicaLag = "store: replica lag exceeds staleness bound"
	// ErrReplicaReadOnly refuses writes on the replica-read port.
	ErrReplicaReadOnly = "store: replica is read-only (write to the primary)"
)

// pendingReplRead is a replica GET parked for the durable horizon: l is
// the version resolved at request time (valid for as long as its log
// region lives — an epoch switch re-resolves via key).
type pendingReplRead struct {
	reply *core.Chan
	key   string
	l     loc
}

// GetReplica returns the current value of key under the replica-read
// contract: bounded staleness, durable-only. On a store that has never
// been fed by a primary it degrades to an ordinary local Get.
func (s *Store) GetReplica(t *core.Thread, key string) GetResult {
	return s.gets.Take(s.k.Call(t, "store", keyHash(key), "getr", s.keyArgs.Hold(keyArg{Key: key})).(*GetResult))
}

// getReplica is the shard handler for a bounded-lag replica read.
func (sh *shard) getReplica(t *core.Thread, key string, reply *core.Chan) core.Msg {
	sh.m.ReplicaGets++
	if sh.failed != "" {
		sh.m.ReadErrors++
		return sh.getErr(sh.failed)
	}
	if !sh.s.replicaRole {
		// A primary/solo store answering a replica-read is just a local
		// read — it IS the freshest copy.
		l, ok := sh.idx[key]
		if !ok || l.dead {
			sh.m.GetNotFound++
			return sh.notFound()
		}
		return sh.serveLoc(t, l, reply)
	}
	if !sh.imageComplete {
		// Refuse until a complete bootstrap image has landed — an empty
		// or partial index must not answer "not found" for keys the
		// primary holds (this covers the window between attach and the
		// first batch too).
		sh.m.RefusedSyncing++
		return sh.getErr(ErrReplicaSyncing)
	}
	if sh.primTail-sh.replApplied > sh.s.P.ReplicaLagBound {
		sh.m.RefusedLag++
		return sh.getErr(ErrReplicaLag)
	}
	l, ok := sh.idx[key]
	if !ok || l.dead {
		sh.m.GetNotFound++
		return sh.notFound()
	}
	if l.seq > sh.replDurable {
		// The version is applied but its group commit has not landed: a
		// failover right now would lose it. Park until the flush
		// interrupt advances the durable horizon — the read sits in the
		// ReplReadsParked gauge until serveLoc (or a nack) counts it.
		sh.m.ReplicaWaits++
		sh.replReads = append(sh.replReads, pendingReplRead{reply: reply, key: key, l: l})
		return kernel.Deferred
	}
	return sh.serveLoc(t, l, reply)
}

// drainReplReads serves every parked replica read whose sequence the
// durable horizon now covers. The read re-resolves its key first — if a
// NEWER version has become durable meanwhile it serves that; if the
// newest version is still in flight it serves the one it resolved at
// request time (immutable in its log region), so a hot key's write
// stream can delay a read by at most one group commit, never starve it.
func (sh *shard) drainReplReads(t *core.Thread) {
	if len(sh.replReads) == 0 {
		return
	}
	var keep []pendingReplRead
	for _, pr := range sh.replReads {
		if pr.l.seq > sh.replDurable {
			keep = append(keep, pr)
			continue
		}
		l := pr.l
		if cur, ok := sh.idx[pr.key]; ok && !cur.dead && cur.seq <= sh.replDurable && cur.ver >= l.ver {
			l = cur
		}
		if res := sh.serveLoc(t, l, pr.reply); res != kernel.Deferred {
			pr.reply.Send(t, res)
		}
	}
	sh.replReads = keep
}

// requeueReplReads re-resolves every parked replica read against the
// current index — called at an epoch commit, after which the retired
// region's blocks (where a parked loc may point) are about to be
// trimmed. A compaction re-copy carries seq 0 (durable via its source
// record), so most requeued reads serve immediately.
func (sh *shard) requeueReplReads(t *core.Thread) {
	if len(sh.replReads) == 0 {
		return
	}
	old := sh.replReads
	sh.replReads = nil
	for _, pr := range old {
		l, ok := sh.idx[pr.key]
		if !ok || l.dead {
			sh.m.GetNotFound++
			pr.reply.Send(t, sh.notFound())
			continue
		}
		if l.seq > sh.replDurable {
			sh.replReads = append(sh.replReads, pendingReplRead{reply: pr.reply, key: pr.key, l: l})
			continue
		}
		if res := sh.serveLoc(t, l, pr.reply); res != kernel.Deferred {
			pr.reply.Send(t, res)
		}
	}
}

// ServeReplicaReads pumps one replica-read connection: GETs are served
// under the bounded-staleness contract, everything else is refused —
// the replica takes read load off the primary, it does not take writes.
func ServeReplicaReads(t *core.Thread, c *net.Conn, s *Store) {
	for {
		v, ok := c.Recv(t)
		if !ok {
			break
		}
		req, ok := v.(KVRequest)
		if !ok {
			continue
		}
		var resp KVResponse
		if req.Op == WGet {
			r := s.GetReplica(t, req.Key)
			resp = KVResponse{Seq: req.Seq, OK: r.Err == "", Found: r.Found, Ver: r.Ver, Val: r.Val, Err: r.Err}
		} else {
			resp = KVResponse{Seq: req.Seq, Err: ErrReplicaReadOnly}
		}
		c.Send(t, resp, resp.WireBytes())
	}
	c.Close(t)
}
