// Log compaction: the mechanism that turns the store's finite append-only
// log regions into unbounded steady-state operation. When a shard's
// active region crosses the high-water mark, the shard seals its tail
// and starts re-appending every live index entry (current records plus
// tombstones — the version floor must survive) into the device's other
// region. The sweep runs in bounded increments, each one a deferred
// self-message ("compact"), the same discipline as the netstack's "rto"
// and the group-commit "flush": GET/PUT/DELETE keep being served between
// increments and the shard never blocks. Fresh writes issued while a
// compaction is in flight are redirected into the new region (stamped
// with the next epoch), so the copy pass never chases a moving tail.
// Once every surviving entry points into the new region and every write
// covering the copies has completed, the shard seals the switch with a
// region-epoch record in the superblock; the old region is then trimmed
// and will be reused two epochs later. Recovery (store.go) can pick the
// right region after a crash at any point in this protocol — see
// DESIGN.md §store for the crash matrix.
package store

import (
	"encoding/binary"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim/detmap"
)

// Superblock encoding: magic, epoch, complemented epoch (a torn or
// never-written superblock fails the check and reads as epoch 0).
const superMagic = 0x63686f732d737030 // "chos-sp0"

func encSuper(epoch uint64) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:8], superMagic)
	binary.LittleEndian.PutUint64(b[8:16], epoch)
	binary.LittleEndian.PutUint64(b[16:24], ^epoch)
	return b
}

func decSuper(b []byte) uint64 {
	if len(b) < 24 || binary.LittleEndian.Uint64(b[0:8]) != superMagic {
		return 0
	}
	e := binary.LittleEndian.Uint64(b[8:16])
	if binary.LittleEndian.Uint64(b[16:24]) != ^e {
		return 0
	}
	return e
}

// compaction is one in-flight compaction pass. keys is a sorted snapshot
// of the index at start (sorted for deterministic replay; keys written
// after the snapshot already live in the target region and are skipped
// by the source-region check).
type compaction struct {
	keys []string
	next int
	src  blockdev.Region // region being retired

	// srcUsedBytes is the bytes occupied in the source region when the
	// sweep began — still on the device until the epoch commits, so
	// UsedLogBytes counts them.
	srcUsedBytes int
	// waitBlock is the source block a parked increment needs from disk
	// (-1 when not waiting); readDone resumes the sweep.
	waitBlock int
	// copied is set once the sweep is complete; the epoch commits when
	// the flushes covering the copies (needFlushes) have completed.
	copied      bool
	needFlushes uint64
	sbIssued    bool
}

// maybeCompact starts a compaction when the active region has crossed
// the high-water mark, unless the rewrite cannot help: a live set too
// big to fit the target region with headroom is the data — not garbage
// — filling the log (its eventual exhaustion is honest), and a region
// that is almost all live would be copied again the moment it commits
// (back-to-back rewrites forever), so the sweep also waits until there
// is real space to win back.
func (sh *shard) maybeCompact(t *core.Thread) {
	if sh.comp != nil || sh.failed != "" {
		return
	}
	p := &sh.s.P
	usedBlocks := sh.openBlock - sh.s.regionStart(sh.epoch) + 1
	if usedBlocks < max(1, p.LogBlocks*3/4) { // the high-water mark
		return
	}
	usable := p.Disk.BlockSize - blockHeader
	if sh.liveBytes > (p.LogBlocks-1)*usable*7/8 {
		sh.m.CompactionsSkipped++ // would not fit: per-block padding plus mid-sweep fresh writes need the margin
		return
	}
	usedBytes := (usedBlocks-1)*p.Disk.BlockSize + len(sh.open)
	if usedBytes-sh.liveBytes < p.LogBlocks*p.Disk.BlockSize/8 {
		sh.m.CompactionsSkipped++ // nothing worth reclaiming yet
		return
	}
	sh.startCompaction(t)
}

// startCompaction seals the source tail (its records must reach disk
// under the old epoch), snapshots the key set, and moves the append
// cursor to the start of the target region.
func (sh *shard) startCompaction(t *core.Thread) {
	sh.m.CompactionsStarted++
	sh.m.flight.Record(sh.now(), "compact-start", "", sh.epoch, uint64(sh.liveBytes))
	if len(sh.open) > blockHeader {
		sh.flush(t, true) // seal: cache insert rides the completion
	}
	srcStart := sh.s.regionStart(sh.epoch)
	sh.comp = &compaction{
		keys:         sortedKeys(sh.idx),
		src:          sh.s.region(sh.epoch),
		srcUsedBytes: (sh.openBlock-srcStart)*sh.s.P.Disk.BlockSize + len(sh.open),
		waitBlock:    -1,
	}
	sh.openBlock = sh.s.regionStart(sh.epoch + 1)
	sh.open = nil
	sh.scheduleCompact(t)
}

// resumeCompaction picks a crashed compaction back up after recovery:
// the target region's durable blocks stay where replay found them, and
// the sweep re-copies whatever still points into the old region.
// srcUsedBytes is what replay found occupied in the old region.
func (sh *shard) resumeCompaction(t *core.Thread, srcUsedBytes int) {
	sh.m.CompactionsStarted++
	sh.m.flight.Record(sh.now(), "compact-resume", "", sh.epoch, uint64(srcUsedBytes))
	sh.comp = &compaction{
		keys:         sortedKeys(sh.idx),
		src:          sh.s.region(sh.epoch),
		srcUsedBytes: srcUsedBytes,
		waitBlock:    -1,
	}
	sh.scheduleCompact(t)
}

func sortedKeys(idx map[string]loc) []string {
	return detmap.Keys(idx)
}

// scheduleCompact arms the next increment as a deferred self-message,
// exactly like armFlush — the pause is what lets queued requests
// interleave with the sweep.
func (sh *shard) scheduleCompact(t *core.Thread) {
	svc, id, from := sh.s.svc, sh.id, t.Core()
	rt := sh.s.rt
	rt.Eng.After(sh.s.P.CompactStepCycles, func() {
		svc.Inject(svc.Shard(id), kernel.Request{Op: "compact", Key: id}, from)
	})
}

// compactStep runs one bounded increment of the sweep: examine up to
// CompactBatch index entries, re-appending into the target region those
// that still live in the source region. A source block missing from the
// cache parks the sweep on a disk read (readDone resumes it); requests
// keep being served meanwhile.
func (sh *shard) compactStep(t *core.Thread) {
	c := sh.comp
	if c == nil || sh.failed != "" || c.copied || c.waitBlock >= 0 {
		return
	}
	done := 0
	for done < sh.s.P.CompactBatch && c.next < len(c.keys) {
		k := c.keys[c.next]
		l, ok := sh.idx[k]
		if !ok || !c.src.Contains(l.block) {
			c.next++ // rewritten or tombstoned into the target already
			continue
		}
		if l.dead {
			if !sh.append(t, recDel, k, nil, l.ver) {
				sh.failStop(t, "store: compaction target region full")
				return
			}
			sh.idx[k] = loc{block: sh.openBlock, ver: l.ver, dead: true}
			sh.m.CompactedRecords++
			sh.m.CompactedBytes += uint64(recHeader + len(k))
			c.next++
			done++
			continue
		}
		data, hit := sh.cache.get(l.block)
		if !hit {
			// Park the sweep on the block read; any GETs parked on the
			// same block ride the same read.
			c.waitBlock = l.block
			sh.parkRead(t, l.block, pendingRead{})
			return
		}
		val := data[l.off : l.off+l.vlen]
		if !sh.append(t, recPut, k, val, l.ver) {
			sh.failStop(t, "store: compaction target region full")
			return
		}
		sh.idx[k] = loc{block: sh.openBlock, off: len(sh.open) - len(val), vlen: l.vlen, ver: l.ver}
		sh.m.CompactedRecords++
		sh.m.CompactedBytes += uint64(recHeader + len(k) + len(val))
		c.next++
		done++
	}
	if c.next < len(c.keys) {
		sh.scheduleCompact(t)
		return
	}
	// Sweep complete. Flush the tail and commit once every write issued
	// so far — the last of which covers the final copy — has completed;
	// the disk is serial FIFO, so a flush count is a durability horizon.
	c.copied = true
	if sh.dirty > 0 {
		sh.flush(t, false)
	}
	c.needFlushes = sh.m.FlushesStarted
	sh.maybeCommitEpoch(t)
}

// maybeCommitEpoch seals the switch once the copies are durable: the
// superblock write carries the new epoch, and its completion interrupt
// ("epochdone") retires the old region. Fresh writes keep flowing the
// whole time — they are already landing in the target region and are
// recoverable whether or not the commit has happened yet.
func (sh *shard) maybeCommitEpoch(t *core.Thread) {
	c := sh.comp
	if c == nil || !c.copied || c.sbIssued || sh.m.FlushesDone < c.needFlushes {
		return
	}
	c.sbIssued = true
	d := sh.newDiskDone(t, "epochdone")
	sh.disk.Program(t, blockdev.Request{Op: blockdev.Write, Block: 0, Data: encSuper(sh.epoch + 1)}, d.done)
}

// epochDone is the superblock write's completion interrupt: the epoch
// switch is durable, so the old region is garbage. Dropping its blocks
// from the cache and trimming them off the device is safe — no index
// entry points there, and any read the shard programmed against the old
// region completed before the superblock write did (serial FIFO disk),
// so nothing in flight can touch the trimmed blocks.
func (sh *shard) epochDone(t *core.Thread, d *diskDone) {
	if sh.comp == nil || sh.failed != "" {
		return
	}
	if !d.ok {
		sh.failStop(t, "store: shard fail-stop: epoch commit: "+d.err)
		return
	}
	retired := sh.s.region(sh.epoch)
	sh.epoch++
	sh.comp = nil
	sh.m.CompactionsDone++
	sh.m.flight.Record(sh.now(), "epoch", "", sh.epoch, 0)
	sh.cache.dropRange(retired.Start, retired.End())
	sh.disk.Trim(retired.Start, retired.Blocks)
	// Replica reads parked on locs in the retired region re-resolve
	// against the compacted index before those blocks disappear.
	sh.requeueReplReads(t)
	// The committed superblock switch travels to every replica too, and
	// bootstrap syncs paused behind this compaction resume (or, deferred
	// behind a recovery-resumed compaction, start) now.
	sh.replEpochSwitch(t)
	for _, r := range sh.repls {
		if r.sync != nil {
			sh.scheduleReplSync(t, r)
		} else {
			sh.maybeStartReplSyncFor(t, r)
		}
	}
	sh.maybeCompact(t)
}
