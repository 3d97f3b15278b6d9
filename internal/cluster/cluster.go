// Cluster boot and request routing. Every node is a full chanOS
// machine — its own cores, kernel, NIC, netstack, store and replica
// group — sharing only the simulation engine (one clock, one event
// order: the whole cluster replays deterministically). A node serves
// the ordinary store wire protocol on its port; the cluster layer
// wraps the store's Apply with the shard-map check, answering keys it
// does not own with a Moved redirect instead of data. Nothing here
// shares memory across machines: map installs, migration records and
// redirects all travel as wire messages.
package cluster

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// Params configures a cluster boot.
type Params struct {
	// Nodes is the serving-node count. Splits must carve the keyspace
	// into exactly Nodes ranges (len = Nodes-1, sorted).
	Nodes  int
	Splits []string
	// RF is the replica count per node: each node's store attaches RF
	// replica machines and acks writes under the majority-quorum rule
	// (store/repl.go). 0 = unreplicated nodes.
	RF int
	// Cores per machine (serving nodes and replicas alike). Default 8.
	Cores int
	// Seed derives every machine's runtime seed and every wire's jitter
	// seed (deterministically spread so no two machines share one).
	Seed uint64
	// Store parameterises each node's store (and its replicas').
	Store store.Params
}

// basePort: node i serves on basePort+10*i; its replica j listens on
// basePort+10*i+1+j.
const basePort = 7000

// Node is one serving machine plus its replica group (Repls).
type Node struct {
	*store.Machine
	ID int

	c    *Cluster
	smap *ShardMap
	mig  *migration // non-nil while this node is migration source

	// Request generations: every wire request increments its entry
	// while inside apply; a migration barrier bumps gen and waits for
	// all older generations to drain — the mechanism that closes the
	// "checked the map before the rules changed" races (migrate.go).
	gen         uint64
	genInflight map[uint64]int

	// Moved counts redirects this node issued; MapInstalls counts maps
	// it accepted over the wire.
	Moved       uint64
	MapInstalls uint64
}

// Cluster is N serving nodes on one simulation engine.
type Cluster struct {
	Eng   *sim.Engine
	P     Params
	Nodes []*Node
}

// New boots the cluster: every node and every replica machine on the
// shared engine, every node holding the same version-1 map. The boot
// is pure construction — run the engine (RunFor) to let handshakes,
// bootstrap syncs and quorums form.
func New(eng *sim.Engine, p Params) *Cluster {
	if p.Nodes <= 0 {
		p.Nodes = 1
	}
	if p.Cores <= 0 {
		p.Cores = 8
	}
	smap := NewMap(p.Splits, p.Nodes)
	c := &Cluster{Eng: eng, P: p}
	for i := 0; i < p.Nodes; i++ {
		c.Nodes = append(c.Nodes, c.bootNode(i, smap.Clone()))
	}
	return c
}

// bootNode builds serving node id. Seeds are spread per machine so no
// two runtimes or wires share a stream.
func (c *Cluster) bootNode(id int, smap *ShardMap) *Node {
	p := c.P
	seed := p.Seed + uint64(id)*131
	n := &Node{ID: id, c: c, smap: smap, genInflight: make(map[uint64]int)}
	// Every inter-machine link is the default intra-datacenter wire,
	// its jitter seed spread per machine.
	wire := net.DefaultWireParams()
	mp := store.MachineParams{
		Cores: p.Cores, Seed: seed, Wire: wire, Store: p.Store, Port: basePort + 10*id,
		Accept: fmt.Sprintf("node%d.accept", id), Conn: fmt.Sprintf("node%d.kv", id),
		Serve: func(t *core.Thread, conn *net.Conn, _ *store.Store) { n.serveConn(t, conn) },
	}
	mp.Wire.Seed = seed + 7
	for j := 0; j < p.RF; j++ {
		rp := store.ReplicaMachineParams{Seed: seed + 17 + uint64(j)*19, Port: mp.Port + 1 + j, Wire: wire}
		rp.Wire.Seed = seed + 11 + uint64(j)*13
		mp.Replicas = append(mp.Replicas, rp)
	}
	n.Machine = store.NewMachine(c.Eng, mp)
	return n
}

// RunFor drives the shared engine (all machines advance together).
func (c *Cluster) RunFor(cycles sim.Time) { c.Nodes[0].RT.RunFor(cycles) }

// Shutdown tears every machine down.
func (c *Cluster) Shutdown() {
	for _, n := range c.Nodes {
		n.Shutdown()
	}
}

// Ready reports whether every node's replica quorum is up: each
// replicated node's store has caught up with all its replicas
// (Store.ReplCaughtUp), and an unreplicated node is ready from boot.
func (c *Cluster) Ready() bool {
	for _, n := range c.Nodes {
		if c.P.RF > 0 && !n.KV.ReplCaughtUp() {
			return false
		}
	}
	return true
}

// Map returns node id's installed shard map (read-only).
func (c *Cluster) Map(id int) *ShardMap { return c.Nodes[id].smap }

// serveConn pumps one client connection through the routing layer.
func (n *Node) serveConn(t *core.Thread, conn *net.Conn) {
	for {
		v, ok := conn.Recv(t)
		if !ok {
			break
		}
		req, ok := v.(store.KVRequest)
		if !ok {
			continue
		}
		resp := n.apply(t, req)
		conn.Send(t, resp, resp.WireBytes())
	}
	conn.Close(t)
}

// apply executes one wire request under the routing rules. The order
// of checks is the migration protocol's safety argument (migrate.go):
// a request that passes them may apply locally, and if a migration is
// in its dual-write phase the apply forwards the write to the
// destination before the client sees the ack.
func (n *Node) apply(t *core.Thread, req store.KVRequest) store.KVResponse {
	g := n.gen
	n.genInflight[g]++
	defer func() {
		n.genInflight[g]--
		if n.genInflight[g] == 0 {
			delete(n.genInflight, g)
		}
	}()

	switch req.Op {
	case store.WMap:
		return store.KVResponse{Seq: req.Seq, OK: true, Found: true,
			Val: n.smap.Encode(), MapVer: n.smap.Version}
	case store.WMapSet:
		m, err := DecodeMap(req.Val)
		if err != nil {
			return store.KVResponse{Seq: req.Seq, Err: err.Error()}
		}
		if m.Version > n.smap.Version {
			n.smap = m
			n.MapInstalls++
		}
		return store.KVResponse{Seq: req.Seq, OK: true, MapVer: n.smap.Version}
	case store.WPutV, store.WDelV, store.WStats:
		// Addressed to THIS machine, never routed: migration ingest
		// applies wherever it lands (version-safe), stats describe the
		// machine that served them.
		return n.KV.Apply(t, req)
	case store.WScan:
		// Scans are node-local in a cluster: a prefix can span ranges,
		// and stitching cross-node scans is a client concern.
		return n.KV.Apply(t, req)
	}

	// Routed single-key ops. A flipped-but-not-yet-installed migration
	// bounces its range first (the done check); then the installed map
	// decides ownership.
	if m := n.mig; m != nil && m.done && m.contains(req.Key) {
		n.Moved++
		return store.KVResponse{Seq: req.Seq, Moved: true, Owner: m.dest, MapVer: m.newVer}
	}
	if owner := n.smap.NodeFor(req.Key); owner != n.ID {
		n.Moved++
		return store.KVResponse{Seq: req.Seq, Moved: true, Owner: owner, MapVer: n.smap.Version}
	}
	resp := n.KV.Apply(t, req)

	// Dual-write phase: a write into the migrating range is forwarded
	// to the destination — at the version the local store minted — and
	// the client's ack waits for the destination's. Zero acked-write
	// loss: if the flip happens, the destination holds the write; if
	// the source dies first, its replica quorum does. Note the forward
	// does NOT check m.done: a request that passed routing before the
	// flip but applied after it must still ship its write (the drain
	// barrier holds the flip's map install open until it has).
	if m := n.mig; m != nil && m.dual && !m.failed && m.contains(req.Key) &&
		resp.OK && resp.Ver > 0 && (req.Op == store.WPut || req.Op == store.WDelete) {
		fr := store.KVRequest{Op: store.WPutV, Key: req.Key, Val: req.Val, Ver: resp.Ver}
		if req.Op == store.WDelete {
			fr = store.KVRequest{Op: store.WDelV, Key: req.Key, Ver: resp.Ver}
		}
		if _, ok := m.fwd.call(t, fr); !ok {
			// Destination unreachable: the migration aborts (the map
			// never flips, this node keeps owning the range), so the
			// local durable apply alone backs the ack.
			m.failed = true
		}
	}
	return resp
}

// installMap adopts m if newer — the local half of a WMapSet, used by
// the migration source when its own flip commits.
func (n *Node) installMap(m *ShardMap) {
	if m.Version > n.smap.Version {
		n.smap = m
		n.MapInstalls++
	}
}

// drainBefore parks the calling thread until every request of
// generation <= gen has left apply. New arrivals (later generations)
// keep being served; the wait is bounded by the slowest in-flight
// request, not by offered load.
func (n *Node) drainBefore(t *core.Thread, gen uint64) {
	for {
		busy := 0
		for g, c := range n.genInflight {
			if g <= gen {
				busy += c
			}
		}
		if busy == 0 {
			return
		}
		t.Compute(2_000)
	}
}
