// Arming: turning a parsed Schedule into live engine events against a
// booted scenario. Every trigger lands as part of the counted event
// sequence — cy: via Engine.At, ev: via Engine.AtFired, pred: via a
// flight-recorder hook that schedules an injection event at the
// observing instant — so the whole fault timeline is inside the
// (seed, config, event-count) replay coordinate system.
package chaos

import (
	"chanos/internal/cluster"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
	"chanos/internal/telemetry"
)

// faultPlane is the injection surface of one booted scenario: one
// serving machine per node (single-machine scenarios have exactly node
// 0). The armer never reaches around these — it mutates only what a
// real operator could break: a node's client wire, NIC, disks and
// whole replica machines.
type faultPlane struct {
	eng   *sim.Engine
	nodes []*store.Machine

	keyAt func(i int) string // scenario keyspace (bitrot targets)

	// tryMigrate starts a live migration (cluster scenarios; nil
	// elsewhere). Reports false when the source is busy.
	tryMigrate func(rangeIdx, dest int, onDone func(cluster.MigrationReport)) bool
}

// predWatch is one pred-triggered clause waiting for its first
// matching flight event.
type predWatch struct {
	kind string
	fire func()
	done bool
}

// armer owns a schedule's live state for one run: which clauses fired
// (in fire order), every flight-event kind the primaries recorded, and
// migration completions.
type armer struct {
	t     *faultPlane
	fired []string          // clause canonical strings, fire order
	kinds map[string]uint64 // flight kind -> count, across primaries

	watches []*predWatch
	killed  map[int]bool // node*64+slot: replica already powered off

	migStarted int
	migReports []cluster.MigrationReport
}

func newArmer(t *faultPlane) *armer {
	return &armer{t: t, kinds: make(map[string]uint64), killed: make(map[int]bool)}
}

// arm schedules every clause. Call once, before driving the engine,
// in both original runs and replays — the arming itself is part of the
// event-sequence contract.
func (a *armer) arm(sched Schedule) {
	for _, c := range sched {
		c := c
		fire := func() {
			a.fired = append(a.fired, c.String())
			a.inject(c)
		}
		switch c.Trig {
		case TrigCycle:
			a.t.eng.At(sim.Time(c.At), fire)
		case TrigEvent:
			a.t.eng.AtFired(c.At, fire)
		case TrigPred:
			a.watches = append(a.watches, &predWatch{kind: c.Pred, fire: fire})
		}
	}
	// The hook multiplexes every pred watcher AND counts flight kinds
	// for the invariant report, so it installs unconditionally. It runs
	// on the recording shard's thread: bookkeeping only, with the
	// injection deferred to a scheduled event at the same instant.
	for _, n := range a.t.nodes {
		n.KV.SetFlightHook(func(shard int, ev telemetry.FlightEvent) { a.onFlight(ev) })
	}
}

func (a *armer) onFlight(ev telemetry.FlightEvent) {
	a.kinds[ev.Kind]++
	for _, w := range a.watches {
		if w.done || w.kind != ev.Kind {
			continue
		}
		w.done = true
		fire := w.fire
		a.t.eng.At(a.t.eng.Now(), fire)
	}
}

// migPending reports migrations started but not yet reported done.
func (a *armer) migPending() int { return a.migStarted - len(a.migReports) }

// inject applies one fault to the plane. Out-of-range indexes wrap or
// no-op rather than panic: a generated schedule is always in bounds
// (Validate), but a hand-written red schedule should fail its
// invariants, not crash the harness.
func (a *armer) inject(c Clause) {
	t := a.t
	node := 0
	if len(c.Args) > 0 {
		node = c.Args[0] % len(t.nodes)
	}
	n := t.nodes[node]
	switch c.Fault {
	case FaultKillReplica:
		slot := c.Args[1]
		if rs := n.Repls; slot < len(rs) && !a.killed[node*64+slot] {
			a.killed[node*64+slot] = true
			rs[slot].Shutdown()
		}
	case FaultDiskFail:
		disks := n.KV.Disks()
		disks[c.Args[1]%len(disks)].InjectWriteFailures(c.Args[2])
	case FaultWireLoss:
		a.lossWindow(n.NW, float64(c.Args[1])/1000, uint64(c.Args[2]))
	case FaultReplLoss:
		slot := c.Args[1]
		if rs := n.Repls; slot < len(rs) && !a.killed[node*64+slot] {
			a.lossWindow(rs[slot].NW, float64(c.Args[2])/1000, uint64(c.Args[3]))
		}
	case FaultNICSlow:
		a.nicWindow(n.NIC, uint64(c.Args[1]), uint64(c.Args[2]))
	case FaultMigrate:
		if t.tryMigrate != nil {
			rangeIdx := c.Args[0] % len(t.nodes)
			dest := c.Args[1] % len(t.nodes)
			if t.tryMigrate(rangeIdx, dest, func(r cluster.MigrationReport) {
				a.migReports = append(a.migReports, r)
			}) {
				a.migStarted++
			}
		}
	case FaultBitrot:
		n.KV.InjectBitrot(t.keyAt(c.Args[1]))
	}
}

// lossWindow raises a wire's drop probability to p, restoring the
// value it found after win cycles (0 = rest of the run). Overlapping
// windows on one wire restore in schedule order — last writer wins,
// which is deterministic and documented rather than clever.
func (a *armer) lossWindow(nw *net.Network, p float64, win uint64) {
	saved := nw.P.LossProb
	nw.P.LossProb = p
	if win > 0 {
		a.t.eng.After(sim.Time(win), func() { nw.P.LossProb = saved })
	}
}

// nicWindow scales a NIC's DMA and serialisation costs by factor for
// win cycles (0 = rest of the run).
func (a *armer) nicWindow(nic *machine.NIC, factor, win uint64) {
	if factor < 1 {
		factor = 1
	}
	saved := nic.P
	nic.P.TxDMACycles *= factor
	nic.P.CyclesPerByte *= factor
	nic.P.RxDMACycles *= factor
	if win > 0 {
		a.t.eng.After(sim.Time(win), func() { nic.P = saved })
	}
}
