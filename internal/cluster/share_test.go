package cluster

import (
	"bytes"
	"testing"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/sim/detmap"
	"chanos/internal/store"
)

// lentBlocks reads every block disk holds through its own read path,
// on a thread of rt, and returns the buffers the reads lend (the
// platter's own, not copies) by block number.
func lentBlocks(c *Cluster, rt *core.Runtime, disk *blockdev.Disk) map[int][]byte {
	out := map[int][]byte{}
	blocks := detmap.Keys(disk.SnapshotData())
	rt.Boot("lend", func(th *core.Thread) {
		irq := th.NewChan("irq", 1)
		for _, b := range blocks {
			disk.Program(th, blockdev.Request{Op: blockdev.Read, Block: b}, func(res blockdev.Result) {
				rt.InjectSend(irq, res, th.Core())
			})
			v, _ := irq.Recv(th)
			out[b] = v.(blockdev.Result).Data
		}
	})
	for step := 0; step < 100 && len(out) < len(blocks); step++ {
		c.RunFor(100_000)
	}
	return out
}

// TestReplicasSharePrimaryBlocks: at rf 2, both replicas of every node
// commit the node's sealed blocks as the node's own buffers, so a
// replicated block lives in host memory once per world. A replica
// block shares only with its own node's byte-equal block at the same
// number; the only equal blocks it keeps copies of are the superblock
// and the open block, which are never sealed.
func TestReplicasSharePrimaryBlocks(t *testing.T) {
	keys := store.Keyspace(600)
	c := boot3(t, 2, keys, 13)
	defer c.Shutdown()
	prefill(t, c, keys, bytes.Repeat([]byte{0x5A}, 300))

	for _, n := range c.Nodes {
		for i, disk := range n.KV.Disks() {
			pb := lentBlocks(c, n.RT, disk)
			var first map[int][]byte
			for j, rm := range n.Repls {
				rb := lentBlocks(c, rm.RT, rm.KV.Disks()[i])
				shared, copies := 0, 0
				for b, buf := range rb {
					equal, same := bytes.Equal(buf, pb[b]), sameArray(buf, pb[b])
					switch {
					case same && !equal:
						t.Errorf("node %d replica %d shard %d block %d shares a buffer whose bytes differ", n.ID, j, i, b)
					case same:
						shared++
						if first != nil && !sameArray(buf, first[b]) {
							t.Errorf("node %d shard %d block %d: the two replicas hold the block in two buffers", n.ID, i, b)
						}
					case equal:
						copies++
					}
				}
				t.Logf("node %d replica %d shard %d: %d of %d blocks shared, %d equal ones copied", n.ID, j, i, shared, len(rb), copies)
				if shared < 3 || copies > 2 {
					t.Errorf("node %d replica %d shard %d: %d blocks shared with the node, %d equal ones copied; want at least 3 and at most 2",
						n.ID, j, i, shared, copies)
				}
				for _, other := range c.Nodes {
					if other == n {
						continue
					}
					ob := lentBlocks(c, other.RT, other.KV.Disks()[i])
					for b, buf := range rb {
						if sameArray(buf, ob[b]) {
							t.Errorf("node %d replica %d shard %d block %d shares node %d's buffer", n.ID, j, i, b, other.ID)
						}
					}
				}
				first = rb
			}
		}
	}
}

// sameArray reports whether a and b start in one backing array.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
