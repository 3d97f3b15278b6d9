// Package machine models the many-core chip the paper anticipates:
// "chips with hundreds of cores or more seem likely in the moderately
// near future". It provides cores laid out on a 2-D mesh, a cycle cost
// model for computation, cache misses, coherence traffic, mode switches
// and hardware message delivery ("we can reasonably suppose that future
// hardware will have native support for sending and receiving messages").
//
// The model is deliberately at cost-function granularity rather than
// microarchitectural: the paper's claims are about *scaling shapes*, which
// are set by the ratios between local computation, coherence-miss cost and
// message cost, not by pipeline details.
package machine

import (
	"fmt"

	"chanos/internal/sim"
)

// Params holds every latency and cost knob, in CPU cycles unless noted.
// Defaults are calibrated loosely to a 2011-era 2 GHz part; see DESIGN.md §4.
type Params struct {
	Cores     int // total cores on the chip
	MeshWidth int // mesh columns; 0 = derive near-square

	// Cache hierarchy hit costs.
	L1, L2, LLC, DRAM uint64
	CacheLine         int // bytes

	// Interconnect.
	HopCycles    uint64 // per mesh hop
	InjectCycles uint64 // router injection/ejection overhead per message

	// Hardware message unit.
	MsgBase         uint64 // fixed cost to send one message
	MsgPerByteShift uint   // payload cost: bytes >> shift cycles (3 => 1 cycle / 8 B)
	MsgRecvCost     uint64 // receiver-side dequeue cost

	// Coherence: cost of moving a dirty line to another core, and the
	// extra per-sharer invalidation cost when a contended line bounces.
	LineTransfer uint64
	InvPerSharer uint64
	MaxInvSharer int // cap on sharers charged, models hw broadcast limits

	// Mode switches (for the trap-based baseline; FlexSC-calibrated).
	TrapDirect    uint64 // user->kernel->user direct cost (both crossings)
	TrapPollution uint64 // indirect cost: cache/TLB state lost per trap

	// Thread machinery.
	CtxSwitch uint64 // put one software thread on a core, take another off
	SpawnCost uint64 // create a lightweight thread
	WakeCost  uint64 // make a blocked thread runnable

	CyclesPerSec uint64 // virtual cycles per simulated second
}

// DefaultParams returns the calibrated defaults for a chip with n cores.
func DefaultParams(n int) Params {
	return Params{
		Cores:           n,
		L1:              4,
		L2:              12,
		LLC:             40,
		DRAM:            220,
		CacheLine:       64,
		HopCycles:       6,
		InjectCycles:    12,
		MsgBase:         40,
		MsgPerByteShift: 3,
		MsgRecvCost:     20,
		LineTransfer:    110, // ~2-3x LLC: dirty-line transfer between cores
		InvPerSharer:    30,
		MaxInvSharer:    32,
		TrapDirect:      300,
		TrapPollution:   600,
		CtxSwitch:       400,
		SpawnCost:       300,
		WakeCost:        60,
		CyclesPerSec:    2_000_000_000,
	}
}

// Core is one execution unit. Occupancy is tracked as a busy-until time:
// callers reserve cycles on a core and the reservation returns when the
// work actually starts and completes, which models queueing on the core.
type Core struct {
	ID   int
	X, Y int

	busyUntil sim.Time

	// Stats.
	BusyCycles uint64
	MsgsSent   uint64
	MsgsRecvd  uint64
	BytesSent  uint64
	Traps      uint64
	Switches   uint64
}

// Machine is the simulated chip.
type Machine struct {
	P     Params
	Eng   *sim.Engine
	cores []*Core
}

// New builds a machine with p.Cores cores on eng's clock.
func New(eng *sim.Engine, p Params) *Machine {
	if p.Cores <= 0 {
		panic("machine: Cores must be positive")
	}
	if p.MeshWidth <= 0 {
		p.MeshWidth = meshWidth(p.Cores)
	}
	if p.CyclesPerSec == 0 {
		p.CyclesPerSec = 2_000_000_000
	}
	m := &Machine{P: p, Eng: eng}
	m.cores = make([]*Core, p.Cores)
	for i := range m.cores {
		m.cores[i] = &Core{ID: i, X: i % p.MeshWidth, Y: i / p.MeshWidth}
	}
	return m
}

func meshWidth(n int) int {
	w := 1
	for w*w < n {
		w++
	}
	return w
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i. It panics on an out-of-range id, since that is
// always a placement bug in the caller.
func (m *Machine) Core(i int) *Core {
	if i < 0 || i >= len(m.cores) {
		panic(fmt.Sprintf("machine: core %d out of range [0,%d)", i, len(m.cores)))
	}
	return m.cores[i]
}

// Dist returns the Manhattan mesh distance between two cores, in hops.
func (m *Machine) Dist(a, b int) int {
	ca, cb := m.Core(a), m.Core(b)
	dx := ca.X - cb.X
	if dx < 0 {
		dx = -dx
	}
	dy := ca.Y - cb.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// MsgCost returns (senderCycles, transitCycles) for a message of the given
// payload size from core `from` to core `to`. The sender is occupied for
// senderCycles; the message lands at the receiver transitCycles after the
// send completes. A message to the local core skips the interconnect.
func (m *Machine) MsgCost(from, to, bytes int) (senderCycles, transitCycles uint64) {
	p := &m.P
	payload := uint64(bytes) >> p.MsgPerByteShift
	senderCycles = p.MsgBase + payload
	if from == to {
		return senderCycles, 0
	}
	transitCycles = p.InjectCycles + uint64(m.Dist(from, to))*p.HopCycles
	return senderCycles, transitCycles
}

// LineTransferCost returns the cost for core `to` to acquire exclusive
// ownership of a cache line last owned by core `from` with `sharers`
// additional sharers to invalidate. This is the heart of the lock-scaling
// foil: the more cores touch a line, the more each handoff costs.
func (m *Machine) LineTransferCost(from, to, sharers int) uint64 {
	p := &m.P
	if sharers > p.MaxInvSharer {
		sharers = p.MaxInvSharer
	}
	c := p.LineTransfer + uint64(sharers)*p.InvPerSharer
	if from != to && from >= 0 {
		c += uint64(m.Dist(from, to)) * p.HopCycles
	}
	return c
}

// TrapCost returns the total per-syscall mode-switch cost for the
// trap-based baseline: the direct crossing cost plus the indirect
// cache/TLB pollution cost (the FlexSC observation).
func (m *Machine) TrapCost() uint64 {
	return m.P.TrapDirect + m.P.TrapPollution
}

// Reserve books `cycles` of work on core c starting no earlier than `now`,
// and returns when the work starts and ends. Work queues FIFO behind
// whatever the core is already committed to.
func (c *Core) Reserve(now sim.Time, cycles uint64) (start, end sim.Time) {
	start = now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end = start + cycles
	c.busyUntil = end
	c.BusyCycles += cycles
	return start, end
}

// Utilization returns the fraction of [0, now] the core spent busy.
func (c *Core) Utilization(now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	u := float64(c.BusyCycles) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// Seconds converts virtual cycles to simulated seconds.
func (m *Machine) Seconds(cycles sim.Time) float64 {
	return float64(cycles) / float64(m.P.CyclesPerSec)
}

// Cycles converts simulated seconds to virtual cycles.
func (m *Machine) Cycles(sec float64) sim.Time {
	return sim.Time(sec * float64(m.P.CyclesPerSec))
}
