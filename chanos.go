// Package chanos is the public facade of the chanOS reproduction: a
// lightweight-messages-and-channels operating system model (Holland &
// Seltzer, "Multicore OSes: Looking Forward from 1991, er, 2011",
// HotOS XIII) running on a simulated many-core machine.
//
// A System bundles the simulated machine and the channel runtime:
//
//	sys := chanos.New(64, chanos.Config{})
//	defer sys.Shutdown()
//	ch := sys.NewChan("greetings", 0)
//	sys.Boot("sender", func(t *chanos.Thread) { ch.Send(t, "hello") })
//	sys.Boot("receiver", func(t *chanos.Thread) {
//		v, _ := ch.Recv(t)
//		fmt.Println(v)
//	})
//	sys.Run()
//
// The deeper subsystems (kernel services, vnode-thread file system, VM
// service, supervision trees, protocol verification) live in internal/
// packages and are exercised by the examples and the experiment suite;
// see DESIGN.md.
package chanos

import (
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
)

// Re-exported core types: these are the paper's §3 constructs.
type (
	// Thread is a lightweight thread (the paper's `start { ... }`).
	Thread = core.Thread
	// Chan is a lightweight message channel; capacity 0 = rendezvous.
	Chan = core.Chan
	// Msg is a message payload (any value, including channels).
	Msg = core.Msg
	// Case is one alternative of a Choose.
	Case = core.Case
	// ExitNotice is delivered to monitors when a thread dies.
	ExitNotice = core.ExitNotice
	// SpawnOpt adjusts thread placement.
	SpawnOpt = core.SpawnOpt
	// Stats snapshots runtime counters.
	Stats = core.Stats
	// Time is virtual time in CPU cycles.
	Time = sim.Time
)

// Choice directions.
const (
	RecvDir = core.RecvDir
	SendDir = core.SendDir
)

// Re-exported network types (internal/net): the sockets-as-channels
// stack. A Listener is an accept channel, a Conn is a receive channel
// plus sends routed to the connection's netstack shard.
type (
	// Conn is one network connection viewed from the serving side.
	Conn = net.Conn
	// Listener accepts connections as messages.
	Listener = net.Listener
	// NetStack is the connection-sharded netstack kernel service.
	NetStack = net.Stack
	// Network is the simulated wire plus its remote peers.
	Network = net.Network
	// NIC is the simulated multi-queue network device.
	NIC = machine.NIC
)

// NewNIC attaches a multi-queue NIC to the system's machine (one RX/TX
// queue pair per core by default).
func (s *System) NewNIC(p machine.NICParams) *NIC {
	return machine.NewNIC(s.M, p)
}

// NewNetwork builds the simulated wire over a NIC.
func (s *System) NewNetwork(nic *NIC, p net.WireParams) *Network {
	return net.NewNetwork(s.Eng, nic, p)
}

// NewNetStack registers the connection-sharded netstack service on k.
func (s *System) NewNetStack(k *kernel.Kernel, nic *NIC, p net.StackParams) *NetStack {
	return net.NewStack(s.RT, k, nic, p)
}

// Store is the key-sharded, log-persistent KV storage kernel service.
type Store = store.Store

// NewStore registers the key-sharded store service on k with fresh
// per-shard log devices.
func (s *System) NewStore(k *kernel.Kernel, p store.Params) *Store {
	return store.New(s.RT, k, p, nil)
}

// OnCore pins a spawned thread to a core.
func OnCore(c int) SpawnOpt { return core.OnCore(c) }

// Config tunes a System.
type Config struct {
	// Seed makes the whole simulation reproducible. 0 = 1.
	Seed uint64
	// Strict enables shared-nothing deep-copy message semantics.
	Strict bool
}

// System is a booted simulated machine plus channel runtime.
type System struct {
	Eng *sim.Engine
	M   *machine.Machine
	RT  *core.Runtime
}

// New builds a system with the given core count.
func New(cores int, cfg Config) *System {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: cfg.Seed, Strict: cfg.Strict})
	return &System{Eng: eng, M: m, RT: rt}
}

// NewChan creates a channel (capacity 0 = blocking rendezvous send).
func (s *System) NewChan(name string, capacity int) *Chan {
	return s.RT.NewChan(name, capacity)
}

// Boot spawns a thread from outside the simulation.
func (s *System) Boot(name string, fn func(*Thread), opts ...SpawnOpt) *Thread {
	return s.RT.Boot(name, fn, opts...)
}

// Run drives the simulation until all threads are blocked or dead.
func (s *System) Run() { s.RT.Run() }

// RunFor drives the simulation for d more cycles.
func (s *System) RunFor(d Time) { s.RT.RunFor(d) }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.Eng.Now() }

// Seconds converts cycles to simulated seconds.
func (s *System) Seconds(c Time) float64 { return s.M.Seconds(c) }

// Cycles converts simulated seconds to cycles.
func (s *System) Cycles(sec float64) Time { return s.M.Cycles(sec) }

// Stats snapshots runtime counters.
func (s *System) Stats() Stats { return s.RT.Stats() }

// Shutdown kills all remaining threads (call when done).
func (s *System) Shutdown() { s.RT.Shutdown() }
