package store

import (
	"slices"
	"testing"
)

// order returns the cache's blocks from most to least recently used.
func (c *lruCache) order() []int {
	var out []int
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.block)
	}
	return out
}

// TestLRUDropRange: dropRange removes exactly the blocks in its range,
// leaves the others in their recency order, and keeps no dropped block
// reachable from the cache.
func TestLRUDropRange(t *testing.T) {
	c := newLRUCache(8)
	for _, b := range []int{3, 9, 4, 12, 5, 1} {
		c.put(b, []byte{byte(b)})
	}
	c.get(4)
	dropped := []*lruNode{c.m[3], c.m[4], c.m[5]}
	c.dropRange(3, 6)
	if got, want := c.order(), []int{1, 12, 9}; !slices.Equal(got, want) {
		t.Fatalf("recency order after dropRange(3, 6) = %v, want %v", got, want)
	}
	if c.tail.block != 9 || c.tail.next != nil || c.head.prev != nil {
		t.Fatalf("list ends are broken: head %d, tail %d", c.head.block, c.tail.block)
	}
	for _, b := range []int{3, 4, 5} {
		if _, ok := c.get(b); ok {
			t.Fatalf("block %d still cached after its range was dropped", b)
		}
	}
	if len(c.m) != 3 {
		t.Fatalf("%d cached, want 3", len(c.m))
	}
	// Refilling reuses the dropped nodes, and evicts in recency order
	// once full.
	for b := 20; b < 25; b++ {
		c.put(b, []byte{byte(b)})
	}
	if got, want := c.order(), []int{24, 23, 22, 21, 20, 1, 12, 9}; !slices.Equal(got, want) {
		t.Fatalf("recency order after refill = %v, want %v", got, want)
	}
	for _, n := range dropped {
		if c.m[n.block] != n {
			t.Fatalf("the node dropped for block %d was not reused by the refill", n.block)
		}
	}
}

// TestLRUPutAfterDropRangeAllocs: a put that refills a node dropRange
// freed allocates nothing.
func TestLRUPutAfterDropRangeAllocs(t *testing.T) {
	const blocks = 64
	c := newLRUCache(blocks)
	buf := make([]byte, 16)
	fill := func() {
		for b := 0; b < blocks; b++ {
			c.put(b, buf)
		}
	}
	fill()
	c.dropRange(0, blocks)
	fill()
	c.dropRange(0, blocks)
	if per := testing.AllocsPerRun(20, func() {
		fill()
		c.dropRange(0, blocks)
	}) / blocks; per != 0 {
		t.Fatalf("a put after dropRange allocates %.3f, want 0", per)
	}
}
