package store

import "chanos/internal/sim"

// lruCache is the per-shard block cache: sealed log blocks keyed by
// block number, least-recently-used eviction. It is owned by exactly
// one shard thread, so — like everything else in a shard — it needs no
// locking.
type lruCache struct {
	cap        int
	m          map[int]*lruNode
	head, tail *lruNode // head = most recently used
	// free holds the nodes dropRange removed, for put to reuse.
	free sim.FreeList[lruNode]
}

type lruNode struct {
	block      int
	data       []byte
	prev, next *lruNode
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, m: make(map[int]*lruNode)}
}

// get returns the cached block and promotes it to most recently used.
func (c *lruCache) get(block int) ([]byte, bool) {
	n, ok := c.m[block]
	if !ok {
		return nil, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.data, true
}

// put inserts (or refreshes) a block. A full cache evicts its least
// recently used entry and reuses the node for the new block; one that
// is not full takes a node dropRange freed, or a new one.
func (c *lruCache) put(block int, data []byte) {
	if n, ok := c.m[block]; ok {
		n.data = data
		c.unlink(n)
		c.pushFront(n)
		return
	}
	n := c.tail
	if len(c.m) >= c.cap {
		c.unlink(n)
		delete(c.m, n.block)
	} else {
		n = c.free.Get()
	}
	n.block, n.data = block, data
	c.m[block] = n
	c.pushFront(n)
}

// dropRange evicts every cached block in [start, end) — used when a
// compacted region is retired: its block numbers will be rewritten with
// different contents under a later epoch, and a stale hit must be
// impossible by construction, not by luck. It walks the recency list,
// so it never ranges over the map, and removing a node leaves the order
// of the others as it was. A dropped node goes on the free list, its
// block buffer released to the GC.
func (c *lruCache) dropRange(start, end int) {
	for n := c.head; n != nil; {
		next := n.next
		if n.block >= start && n.block < end {
			c.unlink(n)
			delete(c.m, n.block)
			n.data = nil
			c.free.Put(n)
		}
		n = next
	}
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
