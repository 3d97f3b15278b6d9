// Package event implements the paper's upward event flow (§3.1): kernel
// and hardware events — thermal, power, hot-plug, asynchronous I/O
// completion — "necessarily originate in the kernel and flow upward to
// user space". In chanOS they are just messages on subscription channels.
//
// The package also models the mechanism the paper criticises: Unix signal
// delivery, where a thread working in the kernel "must abandon and unwind
// everything that was in progress ... then, typically, the process must
// restart the system call and redo all the work it just unwound".
// Experiment E4 measures that wasted work.
package event

import (
	"chanos/internal/core"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	Thermal Kind = iota
	Power
	HotPlug
	IOComplete
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Thermal:
		return "thermal"
	case Power:
		return "power"
	case HotPlug:
		return "hotplug"
	case IOComplete:
		return "iocomplete"
	default:
		return "unknown"
	}
}

// Event is one upward notification.
type Event struct {
	Kind    Kind
	Source  int // originating core or device id
	Seq     uint64
	Payload core.Msg
}

// MsgBytes implements core.Sized.
func (Event) MsgBytes() int { return 40 }

// Bus is a publish/subscribe fan-out: subscribers register a channel per
// kind; publications are delivered as ordinary messages.
type Bus struct {
	rt   *core.Runtime
	subs map[Kind][]*core.Chan
	seq  uint64

	Published uint64
	Delivered uint64
	Dropped   uint64
}

// NewBus creates an empty bus.
func NewBus(rt *core.Runtime) *Bus {
	return &Bus{rt: rt, subs: make(map[Kind][]*core.Chan)}
}

// Subscribe registers ch for events of the given kind. Subscriber
// channels should be buffered; events that find a full buffer are
// dropped and counted (back-pressure policy: lossy, like real hardware
// event queues).
func (b *Bus) Subscribe(kind Kind, ch *core.Chan) {
	b.subs[kind] = append(b.subs[kind], ch)
}

// Publish delivers ev to all subscribers from thread context.
func (b *Bus) Publish(t *core.Thread, kind Kind, source int, payload core.Msg) {
	b.seq++
	ev := Event{Kind: kind, Source: source, Seq: b.seq, Payload: payload}
	b.Published++
	for _, ch := range b.subs[kind] {
		if ch.TrySend(t, ev) {
			b.Delivered++
		} else {
			b.Dropped++
		}
	}
}

// PublishAsync delivers ev from engine context (hardware origin, e.g. a
// thermal sensor): the canonical upward flow.
func (b *Bus) PublishAsync(kind Kind, source int, payload core.Msg) {
	b.seq++
	ev := Event{Kind: kind, Source: source, Seq: b.seq, Payload: payload}
	b.Published++
	for _, ch := range b.subs[kind] {
		// Injected sends queue (or drop when the channel is closed);
		// count deliveries optimistically — injection has no feedback.
		b.rt.InjectSend(ch, ev, source)
		b.Delivered++
	}
}

// CompletionStats records what a completion-processing worker achieved.
type CompletionStats struct {
	OpsCompleted  uint64
	EventsHandled uint64
	WastedCycles  uint64 // work discarded by signal unwind/redo
	UsefulCycles  uint64
	RestartedOps  uint64
}

// SignalWorker models the Unix path: a worker performing multi-quantum
// kernel operations that must abandon, unwind and restart the current
// operation whenever a signal (I/O completion notice) arrives mid-flight.
//
// signals: channel receiving completion events (buffered).
// opCycles: total computation per operation; quantum: signal check
// granularity; unwindCycles: cost to abandon in-kernel state.
// Returns when `ops` operations have completed and all signals seen.
func SignalWorker(t *core.Thread, signals *core.Chan, ops int, opCycles, quantum, unwindCycles uint64, st *CompletionStats) {
	for done := 0; done < ops; {
		var progress uint64
		restarted := false
		for progress < opCycles {
			step := quantum
			if opCycles-progress < step {
				step = opCycles - progress
			}
			t.Compute(step)
			progress += step
			// A signal arriving mid-operation forces unwind + restart.
			if _, ok, ready := signals.TryRecv(t); ready && ok {
				st.EventsHandled++
				if progress < opCycles {
					t.Compute(unwindCycles)
					st.WastedCycles += progress + unwindCycles
					st.RestartedOps++
					restarted = true
				}
				break
			}
		}
		if restarted {
			continue // redo all the work it just unwound
		}
		st.UsefulCycles += opCycles
		st.OpsCompleted++
		done++
	}
}

// ChannelWorker models the chanOS path: completion notices queue on a
// channel and are drained between operations; in-flight work is never
// abandoned.
func ChannelWorker(t *core.Thread, notices *core.Chan, ops int, opCycles uint64, st *CompletionStats) {
	for done := 0; done < ops; done++ {
		t.Compute(opCycles)
		st.UsefulCycles += opCycles
		st.OpsCompleted++
		for {
			_, ok, ready := notices.TryRecv(t)
			if !ready || !ok {
				break
			}
			st.EventsHandled++
		}
	}
}
