// The store half of live shard migration (internal/cluster): the index
// export. A migration streams a node's key range to another machine as
// WPutV/WDelV wire requests — version-carrying writes that ride the one
// write path (shard.write, store.go), each record applied AT the
// source's version, so duplicate delivery (copy sweep vs delta sweep vs
// dual-write overlap, or a retransmitted request) is idempotent by the
// same version-aware rule the replica apply path uses. Export walks a
// shard's index and returns metadata only (keys, versions, tombstones);
// the migration thread reads values through the ordinary GET path,
// paying cache-miss disk reads like any client.
package store

import (
	"chanos/internal/core"
	"chanos/internal/sim/detmap"
)

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

// Export returns shard i's index metadata for keys in [start, end)
// (end "" = unbounded), sorted by key: live entries and tombstones,
// versions included. Metadata only — values are read through Get.
func (s *Store) Export(t *core.Thread, i int, start, end string) []ExportEntry {
	r := s.k.Call(t, "store", i, "export", exportArg{Start: start, End: end}).(exportResult)
	return r.Entries
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
