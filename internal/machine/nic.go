package machine

import (
	"fmt"

	"chanos/internal/sim"
)

// NICParams models a multi-queue network interface of the kind the paper
// assumes future hardware will provide natively ("native support for
// sending and receiving messages"): per-core RX/TX queue pairs, so the
// device itself never forces cross-core serialisation. Costs are in CPU
// cycles on the 2 GHz machine.
type NICParams struct {
	Queues int // RX/TX queue pairs; 0 = one per core

	TxDMACycles   uint64 // host cycles to program a TX descriptor (charged by the caller)
	FrameBase     uint64 // fixed serialisation cost per frame on a TX queue
	CyclesPerByte uint64 // wire serialisation cost per payload byte
	RxDMACycles   uint64 // device latency from wire arrival to host-visible frame
	RxQueueDepth  int    // frames buffered per RX queue before the device drops
}

// DefaultNICParams models a 10GbE-class multi-queue NIC: ~0.3 µs TX
// descriptor programming, ~2 cycles/byte serialisation (≈1 GB/s), ~0.75 µs
// RX DMA + IRQ dispatch. RX rings are kept short (64 descriptors) on
// purpose: when the stack falls behind, excess arrivals must die at the
// device — otherwise queued receive work starves transmit work and the
// machine does nothing useful (receive livelock).
func DefaultNICParams(queues int) NICParams {
	return NICParams{
		Queues:        queues,
		TxDMACycles:   600,
		FrameBase:     300,
		CyclesPerByte: 2,
		RxDMACycles:   1500,
		RxQueueDepth:  64,
	}
}

// Frame is one unit of NIC transfer: an opaque payload plus its simulated
// wire size. Queue selects the RX/TX queue pair it travels on.
type Frame struct {
	Queue   int
	Bytes   int
	Payload any
}

// NIC is the simulated device. The host side (a network stack) registers
// an OnReceive handler and calls Transmit/RxDone; the wire side (a
// simulated network) registers OnTransmit and calls Arrive. All callbacks
// run in engine context at the modelled completion times.
type NIC struct {
	m *Machine
	P NICParams

	txBusyUntil []sim.Time // per TX queue: the wire is serial per queue
	rxOcc       []int      // per RX queue: descriptors in flight to the host
	rx          func(queue int, f Frame)
	wire        func(f Frame)

	// txDone and rxDMA carry each frame to the end of its TX
	// serialisation or RX DMA through recycled engine events. A frame
	// has its own record rather than a per-queue FIFO popped by one
	// shared callback: RxDMACycles can change while frames are in
	// flight (the chaos harness's NIC slowdown), so completions need not
	// leave in arrival order.
	txDone *sim.Relay[Frame]
	rxDMA  *sim.Relay[Frame]

	// qm is the per-queue metric set — the device-plane analogue of a
	// kernel service's per-shard counters. The NIC runs in engine
	// context, so there is no ownership question; keeping the counts
	// per queue is what makes RSS imbalance and per-ring drop hot spots
	// visible instead of averaged away. Fold with Counters().
	qm []NICQueueCounters
}

// NICQueueCounters is one RX/TX queue pair's counter set (exported
// uint64 fields, walkable by telemetry.EmitCounters / SumCounters).
type NICQueueCounters struct {
	TxFrames uint64 // frames serialised out of the TX queue
	TxBytes  uint64
	RxFrames uint64 // frames accepted into the RX ring
	RxBytes  uint64
	RxDrops  uint64 // frames dropped because the RX ring was full
}

// NewNIC attaches a NIC to machine m. Zero-valued fields take the
// DefaultNICParams calibration; Queues defaults to one pair per core.
func NewNIC(m *Machine, p NICParams) *NIC {
	if p.Queues <= 0 {
		p.Queues = m.NumCores()
	}
	def := DefaultNICParams(p.Queues)
	if p.TxDMACycles == 0 {
		p.TxDMACycles = def.TxDMACycles
	}
	if p.FrameBase == 0 {
		p.FrameBase = def.FrameBase
	}
	if p.CyclesPerByte == 0 {
		p.CyclesPerByte = def.CyclesPerByte
	}
	if p.RxDMACycles == 0 {
		p.RxDMACycles = def.RxDMACycles
	}
	if p.RxQueueDepth <= 0 {
		p.RxQueueDepth = def.RxQueueDepth
	}
	n := &NIC{
		m:           m,
		P:           p,
		txBusyUntil: make([]sim.Time, p.Queues),
		rxOcc:       make([]int, p.Queues),
		qm:          make([]NICQueueCounters, p.Queues),
	}
	n.txDone = sim.NewRelay(m.Eng, func(f Frame) {
		if n.wire != nil {
			n.wire(f)
		}
	})
	n.rxDMA = sim.NewRelay(m.Eng, func(f Frame) {
		if n.rx != nil {
			n.rx(f.Queue, f)
		}
	})
	return n
}

// Queues returns the number of RX/TX queue pairs.
func (n *NIC) Queues() int { return n.P.Queues }

// HashMix scrambles a flow/object key with the splitmix64 finalizer.
// Keys handed to the device (and to sharded kernel services) are often
// sequential — connection ids count up from 1 — and a bare modulo strides
// them through queues in lockstep, so whichever residues the live
// connections happen to occupy get all the traffic (the E14b shard
// imbalance). Mixing first makes any key sequence land uniformly. The
// result is masked to 31 bits so it is non-negative on every platform
// (int is 32 bits on 386/arm), which queue and shard counts never
// approach anyway.
func HashMix(key int) int {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & 0x7fffffff)
}

// QueueFor hashes a flow key onto an RX queue — the device's RSS
// (receive-side scaling) function, which keeps one connection's packets
// on one queue and spreads distinct connections across queues.
func (n *NIC) QueueFor(key int) int {
	return HashMix(key) % n.P.Queues
}

// OnReceive registers the host handler invoked (engine context) when a
// frame is DMAed into an RX queue.
func (n *NIC) OnReceive(fn func(queue int, f Frame)) { n.rx = fn }

// OnTransmit registers the wire handler invoked (engine context) when a
// frame finishes serialising out of a TX queue.
func (n *NIC) OnTransmit(fn func(f Frame)) { n.wire = fn }

// Transmit hands a frame to TX queue f.Queue. Serialisation is FIFO per
// queue (independent queues never contend); the frame reaches the wire
// when its serialisation completes. The TxDMACycles descriptor cost is
// the caller's to charge (it is host CPU work, not device work).
func (n *NIC) Transmit(f Frame) {
	if f.Queue < 0 || f.Queue >= n.P.Queues {
		panic(fmt.Sprintf("machine: TX on invalid NIC queue %d", f.Queue))
	}
	cost := n.P.FrameBase + uint64(f.Bytes)*n.P.CyclesPerByte
	start := n.m.Eng.Now()
	if n.txBusyUntil[f.Queue] > start {
		start = n.txBusyUntil[f.Queue]
	}
	end := start + cost
	n.txBusyUntil[f.Queue] = end
	n.qm[f.Queue].TxFrames++
	n.qm[f.Queue].TxBytes += uint64(f.Bytes)
	n.txDone.At(end, f)
}

// Arrive delivers a frame from the wire into RX queue f.Queue. A full
// ring drops the frame (the overload behaviour real NICs have); otherwise
// the host handler fires RxDMACycles later. The descriptor stays occupied
// until the host calls RxDone, so a stack that falls behind sheds load at
// the device instead of queueing unboundedly.
func (n *NIC) Arrive(f Frame) {
	if f.Queue < 0 || f.Queue >= n.P.Queues {
		panic(fmt.Sprintf("machine: RX on invalid NIC queue %d", f.Queue))
	}
	if n.rxOcc[f.Queue] >= n.P.RxQueueDepth {
		n.qm[f.Queue].RxDrops++
		return
	}
	n.rxOcc[f.Queue]++
	n.qm[f.Queue].RxFrames++
	n.qm[f.Queue].RxBytes += uint64(f.Bytes)
	n.rxDMA.After(n.P.RxDMACycles, f)
}

// RxDone returns one RX descriptor on queue q to the device (the host has
// consumed the frame).
func (n *NIC) RxDone(q int) {
	if q < 0 || q >= n.P.Queues {
		panic(fmt.Sprintf("machine: RxDone on invalid NIC queue %d", q))
	}
	if n.rxOcc[q] > 0 {
		n.rxOcc[q]--
	}
}
