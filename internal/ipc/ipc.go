// Package ipc implements the middleweight message baselines the paper
// distinguishes from lightweight channels (§2): Mach-style ports, where
// every message is copied through the kernel with mode switches on both
// sides, and L4-style synchronous IPC, which is "really [a] procedure
// call" — the caller is suspended until the reply arrives.
//
// Experiment E3 compares these against the lightweight channel send.
package ipc

import (
	"chanos/internal/baseline"
	"chanos/internal/core"
)

// MachPort is a kernel-mediated message queue: send and receive each trap
// into the kernel, which copies the message.
type MachPort struct {
	rt   *core.Runtime
	q    *core.Chan
	trap *baseline.Trap
	// CopyShift: copy cost is bytes >> CopyShift cycles on each side.
	CopyShift uint
	Msgs      uint64
}

// NewMachPort creates a port with the given queue depth.
func NewMachPort(rt *core.Runtime, depth int) *MachPort {
	return &MachPort{
		rt:        rt,
		q:         rt.NewChan("machport", depth),
		trap:      baseline.NewTrap(rt),
		CopyShift: 2,
	}
}

// Send traps into the kernel, copies the message in, and enqueues it.
func (p *MachPort) Send(t *core.Thread, v core.Msg, bytes int) {
	p.trap.Enter(t)
	t.Compute(uint64(bytes) >> p.CopyShift) // copy-in
	p.q.Send(t, v)
	p.trap.Exit(t)
	p.Msgs++
}

// Recv traps into the kernel, dequeues, and copies the message out.
func (p *MachPort) Recv(t *core.Thread, bytes int) (core.Msg, bool) {
	p.trap.Enter(t)
	v, ok := p.q.Recv(t)
	t.Compute(uint64(bytes) >> p.CopyShift) // copy-out
	p.trap.Exit(t)
	return v, ok
}

// L4Server is a synchronous IPC endpoint: one server thread, call/reply
// rendezvous, mode switch on each crossing. "These are really procedure
// calls, not messages in the general sense" (§2).
type L4Server struct {
	rt   *core.Runtime
	call *core.Chan
	trap *baseline.Trap
	// Calls counts completed IPCs.
	Calls uint64
}

// l4Req is the rendezvous envelope.
type l4Req struct {
	arg   core.Msg
	reply *core.Chan
}

// NewL4Server starts a server thread running handler for each call.
func NewL4Server(rt *core.Runtime, name string, handler func(t *core.Thread, arg core.Msg) core.Msg, opts ...core.SpawnOpt) *L4Server {
	s := &L4Server{
		rt:   rt,
		call: rt.NewChan(name+".l4", 0),
		trap: baseline.NewTrap(rt),
	}
	rt.Boot(name, func(t *core.Thread) {
		for {
			v, ok := s.call.Recv(t)
			if !ok {
				return
			}
			req := v.(l4Req)
			out := handler(t, req.arg)
			req.reply.Send(t, out)
		}
	}, opts...)
	return s
}

// Call performs one synchronous IPC: trap in, rendezvous with the server,
// block for the reply, trap out.
func (s *L4Server) Call(t *core.Thread, arg core.Msg) core.Msg {
	s.trap.Enter(t)
	reply := t.NewChan("l4.reply", 0)
	s.call.Send(t, l4Req{arg: arg, reply: reply})
	v, _ := reply.Recv(t)
	s.trap.Exit(t)
	s.Calls++
	return v
}

// Stop shuts the server down.
func (s *L4Server) Stop(t *core.Thread) { s.call.Close(t) }
