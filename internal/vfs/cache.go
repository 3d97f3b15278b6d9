package vfs

import (
	"container/list"

	"chanos/internal/blockdev"
	"chanos/internal/core"
)

// cacheCore is a write-back LRU buffer cache over the disk driver. It has
// no locking of its own: the message frontend gives each cache shard its
// own thread; the lock frontends guard it with locks.
type cacheCore struct {
	drv *blockdev.Driver
	cap int

	entries map[int]*centry
	lru     *list.List // front = most recent

	// HitCycles is the CPU cost charged per cache access.
	HitCycles uint64
}

type centry struct {
	blk   int
	data  []byte
	dirty bool
	el    *list.Element
}

func newCacheCore(drv *blockdev.Driver, capBlocks int) *cacheCore {
	if capBlocks < 4 {
		capBlocks = 4
	}
	return &cacheCore{
		drv:       drv,
		cap:       capBlocks,
		entries:   make(map[int]*centry),
		lru:       list.New(),
		HitCycles: 200,
	}
}

// get returns a copy of block blk, reading through on miss.
func (c *cacheCore) get(t *core.Thread, blk int) []byte {
	t.Compute(c.HitCycles)
	if e, ok := c.entries[blk]; ok {
		c.lru.MoveToFront(e.el)
		return append([]byte(nil), e.data...)
	}
	c.evictIfFull(t)
	res := c.drv.SubmitSync(t, blockdev.Read, blk, nil)
	// The read lends the platter's own block, and put rewrites an
	// entry in place, so the entry holds a copy.
	data := append([]byte(nil), res.Data...)
	if !res.OK || data == nil {
		data = make([]byte, BlockSize)
	}
	e := &centry{blk: blk, data: data}
	e.el = c.lru.PushFront(e)
	c.entries[blk] = e
	return append([]byte(nil), data...)
}

// put stores block blk (write-back: dirty until evicted or synced).
func (c *cacheCore) put(t *core.Thread, blk int, data []byte) {
	t.Compute(c.HitCycles)
	if e, ok := c.entries[blk]; ok {
		e.data = append(e.data[:0], data...)
		e.dirty = true
		c.lru.MoveToFront(e.el)
		return
	}
	c.evictIfFull(t)
	e := &centry{blk: blk, data: append([]byte(nil), data...), dirty: true}
	e.el = c.lru.PushFront(e)
	c.entries[blk] = e
}

func (c *cacheCore) evictIfFull(t *core.Thread) {
	for len(c.entries) >= c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*centry)
		if e.dirty {
			c.drv.SubmitSync(t, blockdev.Write, e.blk, e.data)
		}
		c.lru.Remove(back)
		delete(c.entries, e.blk)
	}
}

// sync writes back every dirty block.
func (c *cacheCore) sync(t *core.Thread) {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*centry)
		if e.dirty {
			c.drv.SubmitSync(t, blockdev.Write, e.blk, e.data)
			e.dirty = false
		}
	}
}

// directStore adapts a cacheCore to BlockStore for callers that already
// own the necessary serialisation (a cache-shard thread, or a lock).
type directStore struct {
	c *cacheCore
}

func (d directStore) ReadBlock(t *core.Thread, blk int) []byte { return d.c.get(t, blk) }
func (d directStore) WriteBlock(t *core.Thread, blk int, data []byte) {
	d.c.put(t, blk, data)
}
