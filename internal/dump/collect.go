package dump

import (
	"fmt"

	"chanos/internal/cluster"
	"chanos/internal/sim"
	"chanos/internal/store"
	"chanos/internal/telemetry"
)

// Collector captures a world's machines into a Dump: one machine M
// (with its first replica's store, if attached), or every node of
// Cluster. Snapshot must run between engine events — host context or
// an observer event — the same single-goroutine window every telemetry
// collector uses.
type Collector struct {
	Eng     *sim.Engine
	M       *store.Machine
	Cluster *cluster.Cluster

	Seed   uint64
	Config Config

	dumped bool
}

// Snapshot captures the whole machine now. EventCount is the engine's
// counted-event clock at this instant — the replay coordinate.
func (c *Collector) Snapshot(reason string) *Dump {
	d := &Dump{
		Version:    Version,
		Reason:     reason,
		Seed:       c.Seed,
		Config:     c.Config,
		EventCount: c.Eng.Fired(),
		AtCycles:   c.Eng.Now(),
	}
	var sd *telemetry.Statd
	if m := c.M; m != nil {
		d.Cores, d.Threads = m.RT.SnapshotSched()
		d.NIC = m.NIC.SnapshotQueues()
		d.Net = m.Stk.SnapshotShards()
		d.Store = m.KV.SnapshotShards()
		if len(m.Repls) > 0 {
			d.Replica = m.Repls[0].KV.SnapshotShards()
		}
		sd = m.SD
	}
	if c.Cluster != nil {
		sd = c.Cluster.Nodes[0].SD
		for _, n := range c.Cluster.Nodes {
			md := MachineDump{Node: n.ID, MapVersion: c.Cluster.Map(n.ID).Version}
			md.Cores, md.Threads = n.RT.SnapshotSched()
			md.NIC = n.NIC.SnapshotQueues()
			md.Net = n.Stk.SnapshotShards()
			md.Store = n.KV.SnapshotShards()
			for _, rm := range n.Repls {
				md.Replicas = append(md.Replicas, rm.KV.SnapshotShards())
			}
			d.Machines = append(d.Machines, md)
		}
	}
	if sd != nil {
		snap := *sd.SnapshotNow()
		// Seq counts host-side scrapes, which differ between an original
		// run and its replay without the machine differing; normalise so
		// dump equality means machine equality.
		snap.Seq = 0
		d.Telemetry = &snap
	}
	return d
}

// OnFailStop arms automatic core dumps: when any store shard (primary
// or replica) fail-stops, an observer event is scheduled at the current
// instant, and when it runs — after the failing event completes, with
// the counted-event clock untouched — fn receives the full machine
// dump. Only the first fail-stop dumps; cascades reference the same
// root cause. The observer event never perturbs the counted event
// sequence, so arming this changes nothing about the run.
func (c *Collector) OnFailStop(fn func(*Dump)) {
	arm := func(s *store.Store, who string) {
		s.FailStopHook = func(shard int, errMsg string) {
			if c.dumped {
				return
			}
			c.dumped = true
			reason := fmt.Sprintf("fail-stop: %s shard %d: %s", who, shard, errMsg)
			c.Eng.ObserveAt(c.Eng.Now(), func() { fn(c.Snapshot(reason)) })
		}
	}
	if m := c.M; m != nil {
		arm(m.KV, "store")
		if len(m.Repls) > 0 {
			arm(m.Repls[0].KV, "replica store")
		}
	}
	if c.Cluster != nil {
		for _, n := range c.Cluster.Nodes {
			arm(n.KV, fmt.Sprintf("node %d store", n.ID))
			for j, rm := range n.Repls {
				arm(rm.KV, fmt.Sprintf("node %d replica %d", n.ID, j))
			}
		}
	}
}

// Dumped reports whether the fail-stop hook has fired.
func (c *Collector) Dumped() bool { return c.dumped }
