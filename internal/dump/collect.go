package dump

import (
	"fmt"

	"chanos/internal/sim"
	"chanos/internal/store"
)

// Collector captures a world's serving machines into a Dump, one
// MachineDump per entry of Nodes (with each machine's replica stores).
// Snapshot must run between engine events — from the host between
// drive slices or from an engine trigger (sim.Engine.AfterEvent) — the
// same single-goroutine window every telemetry read uses.
type Collector struct {
	Eng   *sim.Engine
	Nodes []*store.Machine
	// MapVersion, when set, reports node i's installed shard-map
	// version (cluster worlds); nil records version 0.
	MapVersion func(node int) uint64

	Seed   uint64
	Config Config

	dumped bool
}

// Snapshot captures every machine now. EventCount is the engine's
// fired-event count at this instant — the replay coordinate.
func (c *Collector) Snapshot(reason string) *Dump {
	d := &Dump{
		Version:    Version,
		Reason:     reason,
		Seed:       c.Seed,
		Config:     c.Config,
		EventCount: c.Eng.Fired(),
		AtCycles:   c.Eng.Now(),
	}
	for i, m := range c.Nodes {
		md := MachineDump{Node: i}
		if c.MapVersion != nil {
			md.MapVersion = c.MapVersion(i)
		}
		md.Cores, md.Threads = m.RT.SnapshotSched()
		md.NIC = m.NIC.SnapshotQueues()
		md.Net = m.Stk.SnapshotShards()
		md.Store = m.KV.SnapshotShards()
		for _, rm := range m.Repls {
			md.Replicas = append(md.Replicas, rm.KV.SnapshotShards())
		}
		snap := *m.SD.SnapshotNow()
		// Seq counts host-side scrapes, which differ between an original
		// run and its replay without the machine differing; normalise so
		// dump equality means machine equality.
		snap.Seq = 0
		md.Telemetry = &snap
		d.Machines = append(d.Machines, md)
	}
	return d
}

// OnFailStop arms automatic core dumps: when any store shard (primary
// or replica) fail-stops, the capture is armed with AfterEvent, and
// once the failing event and its triggers have returned — before the
// next event pops — fn receives the full dump. That is the state a
// replay halted at the dump's EventCount rests in. Only the first
// fail-stop dumps; cascades reference the same root cause. The capture
// adds no event, so arming this changes nothing about the run.
func (c *Collector) OnFailStop(fn func(*Dump)) {
	arm := func(s *store.Store, who string) {
		s.FailStopHook = func(shard int, errMsg string) {
			if c.dumped {
				return
			}
			c.dumped = true
			reason := fmt.Sprintf("fail-stop: %s shard %d: %s", who, shard, errMsg)
			c.Eng.AfterEvent(func() { fn(c.Snapshot(reason)) })
		}
	}
	for i, m := range c.Nodes {
		arm(m.KV, fmt.Sprintf("node %d store", i))
		for j, rm := range m.Repls {
			arm(rm.KV, fmt.Sprintf("node %d replica %d", i, j))
		}
	}
}

// Dumped reports whether the fail-stop hook has fired.
func (c *Collector) Dumped() bool { return c.dumped }
