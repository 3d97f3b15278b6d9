// The store half of live shard migration (internal/cluster): version-
// carrying writes and the index export. A migration streams a node's
// key range to another machine as WPutV/WDelV wire requests — each
// record applied AT the source's version, so duplicate delivery (copy
// sweep vs delta sweep vs dual-write overlap, or a retransmitted
// request) is idempotent by the same version-aware rule the replica
// apply path uses. Export walks a shard's index and returns metadata
// only (keys, versions, tombstones); the migration thread reads values
// through the ordinary GET path, paying cache-miss disk reads like any
// client.
package store

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim/detmap"
)

type putvArg struct {
	Key string
	Val []byte
	Ver uint64
}

func (a putvArg) MsgBytes() int { return 32 + len(a.Key) + len(a.Val) }

type delvArg struct {
	Key string
	Ver uint64
}

func (a delvArg) MsgBytes() int { return 24 + len(a.Key) }

// ExportEntry is one key's index metadata as returned by Export.
type ExportEntry struct {
	Key  string
	Ver  uint64
	Dead bool
}

type exportArg struct{ Start, End string }

func (a exportArg) MsgBytes() int { return 16 + len(a.Start) + len(a.End) }

// exportResult carries one shard's export back to the caller.
type exportResult struct{ Entries []ExportEntry }

func (r exportResult) MsgBytes() int {
	n := 8
	for _, e := range r.Entries {
		n += 17 + len(e.Key)
	}
	return n
}

// PutV stores val under key at the GIVEN version — the migration
// ingest path. If the key's current version is already >= ver the
// request acknowledges immediately without appending (idempotent:
// the state the write wanted to create, or a newer one, is already
// durable here). Otherwise the record appends at ver, rides the group
// commit and the replica quorum like any client write, and later
// native Puts continue the version sequence above it.
func (s *Store) PutV(t *core.Thread, key string, val []byte, ver uint64) WriteResult {
	return s.k.Call(t, "store", keyHash(key), "putv", putvArg{Key: key, Val: val, Ver: ver}).(WriteResult)
}

// DeleteV applies a tombstone at the given version, idempotently —
// migration's tombstone transfer (the version floor must survive the
// move).
func (s *Store) DeleteV(t *core.Thread, key string, ver uint64) WriteResult {
	return s.k.Call(t, "store", keyHash(key), "delv", delvArg{Key: key, Ver: ver}).(WriteResult)
}

// Export returns shard i's index metadata for keys in [start, end)
// (end "" = unbounded), sorted by key: live entries and tombstones,
// versions included. Metadata only — values are read through Get.
func (s *Store) Export(t *core.Thread, i int, start, end string) []ExportEntry {
	r := s.k.Call(t, "store", i, "export", exportArg{Start: start, End: end}).(exportResult)
	return r.Entries
}

// putV is the shard handler for a version-carrying PUT.
func (sh *shard) putV(t *core.Thread, a putvArg, reply *core.Chan) core.Msg {
	sh.m.Puts++
	sh.m.writesInFlight++
	if sh.failed != "" {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: sh.failed}
	}
	old, existed := sh.idx[a.Key]
	if existed && old.ver >= a.Ver {
		// Duplicate (or out-of-date) delivery: the key already holds this
		// version or a newer one. Acknowledge without touching the log —
		// this is what makes migration traffic safe to deliver twice.
		sh.m.VerStale++
		sh.m.writesInFlight--
		return WriteResult{OK: true, Found: existed && !old.dead, Ver: old.ver}
	}
	rec := recHeader + len(a.Key) + len(a.Val)
	if rec+1+blockHeader > sh.s.P.Disk.BlockSize {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: fmt.Sprintf("store: record for %q is %d bytes; max %d", a.Key, rec, sh.s.P.Disk.BlockSize-1-blockHeader-recHeader)}
	}
	if !sh.append(t, recPut, a.Key, a.Val, a.Ver) {
		sh.m.LogFull++
		sh.m.writesInFlight--
		return WriteResult{Err: "store: log region full"}
	}
	sh.applyRecord(recPut, a.Key, len(a.Val), a.Ver, 0)
	refs := sh.replCapture(t, recPut, a.Key, len(a.Val), a.Ver)
	sh.m.VerWrites++
	sh.m.flight.Record(sh.now(), "putv", a.Key, a.Ver, uint64(len(a.Val)))
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, refs: refs,
		res: WriteResult{OK: true, Found: existed && !old.dead, Ver: a.Ver}})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

// delV is the shard handler for a version-carrying tombstone.
func (sh *shard) delV(t *core.Thread, a delvArg, reply *core.Chan) core.Msg {
	sh.m.Deletes++
	sh.m.writesInFlight++
	if sh.failed != "" {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: sh.failed}
	}
	old, existed := sh.idx[a.Key]
	if existed && old.ver >= a.Ver {
		sh.m.VerStale++
		sh.m.writesInFlight--
		return WriteResult{OK: true, Found: false, Ver: old.ver}
	}
	if !sh.append(t, recDel, a.Key, nil, a.Ver) {
		sh.m.LogFull++
		sh.m.writesInFlight--
		return WriteResult{Err: "store: log region full"}
	}
	sh.applyRecord(recDel, a.Key, 0, a.Ver, 0)
	refs := sh.replCapture(t, recDel, a.Key, 0, a.Ver)
	sh.m.VerWrites++
	sh.m.flight.Record(sh.now(), "delv", a.Key, a.Ver, 0)
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, refs: refs,
		res: WriteResult{OK: true, Found: existed && !old.dead, Ver: a.Ver}})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

// export walks the shard's index and returns sorted metadata for keys
// in [start, end). Read-only, answers immediately; values never leave
// through here.
func (sh *shard) export(a exportArg) exportResult {
	out := exportResult{}
	for _, k := range detmap.Keys(sh.idx) {
		if k < a.Start || (a.End != "" && k >= a.End) {
			continue
		}
		l := sh.idx[k]
		out.Entries = append(out.Entries, ExportEntry{Key: k, Ver: l.ver, Dead: l.dead})
	}
	return out
}
