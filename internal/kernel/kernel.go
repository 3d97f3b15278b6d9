// Package kernel implements the paper's proposed OS architecture (§4):
// kernel components are autonomous threads running on designated kernel
// cores; system calls are messages sent from application threads to
// kernel-service channels, with no mode transitions; dispatch "via a
// common interface ... is done in this environment by sending to a
// channel".
//
// Services are sharded: a service registers N handler threads
// (RegisterEach), and requests are routed to a shard by key, so
// independent objects never serialise behind each other — this is
// where the scaling comes from. A shard owns its state outright; the
// discipline that keeps it lock-free is that EVERYTHING re-enters as a
// message on the shard's channel: a handler that must wait (for a disk
// interrupt, a timer, a remote ack) returns Deferred and answers later
// when the completion arrives as an ordinary request, rather than
// blocking its thread or sharing state with the completion path.
//
// A request travels as a *Request taken from its service's free list:
// Service.Send and Service.Inject fill a record and send the pointer,
// and the shard's loop copies it into the Request value its handler
// takes and puts the record back, so a syscall message costs the host
// no allocation once the list is warm.
package kernel

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// Request is the kernel syscall message format. Reply is the channel the
// caller expects the result on (the paper's RPC idiom).
type Request struct {
	Op    string
	Key   int // routing/sharding key (object id, inode number, ...)
	Arg   core.Msg
	Reply *core.Chan
}

// MsgBytes implements core.Sized: a syscall message is a small fixed
// header plus its argument. The *Request that travels on a service
// channel reaches it through the pointer's method set, so the record
// and the value are sized alike.
func (r Request) MsgBytes() int {
	n := 48 + len(r.Op)
	if s, ok := r.Arg.(core.Sized); ok {
		n += s.MsgBytes()
	} else if r.Arg != nil {
		n += 16
	}
	return n
}

// Handler processes one request on a service thread and returns the
// reply value. Handlers run on kernel cores and may themselves send
// messages (to drivers, allocators, other services).
type Handler func(t *core.Thread, req Request) core.Msg

// deferredReply is the sentinel type behind Deferred.
type deferredReply struct{}

// Deferred, returned from a Handler, tells the service loop not to send
// a reply now: the handler has retained req.Reply and will answer later,
// when some follow-up message (a disk interrupt, a flush timer) re-enters
// the shard. This is how a service stays lock-free and non-blocking while
// an operation spans I/O: the in-flight state lives in the shard's
// private tables, and the eventual completion message finds it there.
var Deferred core.Msg = deferredReply{}

// Service is a named, sharded kernel component.
type Service struct {
	Name    string
	rt      *core.Runtime
	shards  []*core.Chan
	threads []*core.Thread
	Ops     uint64

	// free holds released request records: a service channel carries
	// only records from it. The receiving shard's loop puts the record
	// back before its handler runs, so the sender hands the record over
	// at the send and keeps no use of it.
	free sim.FreeList[Request]
	// replyName names the reply channels CallAsync makes, built once.
	replyName string
}

// Send sends r from thread t to ch, one of the service's shard
// channels.
func (s *Service) Send(t *core.Thread, ch *core.Chan, r Request) { ch.Send(t, s.free.Hold(r)) }

// Inject delivers r to ch, one of the service's shard channels, from
// outside any thread (a timer, a device completion), as if sent from
// core from (see core.Runtime.InjectSend).
func (s *Service) Inject(ch *core.Chan, r Request, from int) {
	s.rt.InjectSend(ch, s.free.Hold(r), from)
}

// ShardFor returns the channel of the shard owning key.
func (s *Service) ShardFor(key int) *core.Chan {
	if key < 0 {
		key = -key
	}
	return s.shards[key%len(s.shards)]
}

// Shards returns the number of shards.
func (s *Service) Shards() int { return len(s.shards) }

// Shard returns shard i's request channel directly, bypassing key
// routing — for self-addressed service messages (a shard arranging its
// own timer tick or completion interrupt must reach itself regardless of
// how client keys are hashed).
func (s *Service) Shard(i int) *core.Chan { return s.shards[i] }

// Kernel is a running chanOS instance: a set of kernel cores and the
// services placed on them.
type Kernel struct {
	RT *core.Runtime

	kernelCores []int
	nextKC      int
	services    map[string]*Service

	// SyscallQueueDepth is the per-shard request channel capacity
	// (asynchronous sends queue up to this depth). Default 64.
	SyscallQueueDepth int
}

// Config controls kernel layout.
type Config struct {
	// KernelCoreFraction is the share of cores dedicated to kernel
	// service threads (ablation A3). Default 0.25.
	KernelCoreFraction float64
	// SyscallQueueDepth is the per-shard queue capacity. Default 64.
	SyscallQueueDepth int
}

// New carves kernel cores out of the machine and returns an empty kernel.
// Kernel cores are spread across the mesh (every 1/fraction-th core) so
// application threads are never far from a kernel core.
func New(rt *core.Runtime, cfg Config) *Kernel {
	frac := cfg.KernelCoreFraction
	if frac <= 0 {
		frac = 0.25
	}
	if frac > 1 {
		frac = 1
	}
	n := rt.NumCores()
	want := int(float64(n) * frac)
	if want < 1 {
		want = 1
	}
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	k := &Kernel{
		RT:                rt,
		services:          make(map[string]*Service),
		SyscallQueueDepth: cfg.SyscallQueueDepth,
	}
	if k.SyscallQueueDepth <= 0 {
		k.SyscallQueueDepth = 64
	}
	for c := 0; c < n && len(k.kernelCores) < want; c += stride {
		k.kernelCores = append(k.kernelCores, c)
	}
	return k
}

// KernelCores returns the cores running kernel services.
func (k *Kernel) KernelCores() []int { return k.kernelCores }

// IsKernelCore reports whether core c hosts kernel service threads.
func (k *Kernel) IsKernelCore(c int) bool {
	for _, kc := range k.kernelCores {
		if kc == c {
			return true
		}
	}
	return false
}

// nextKernelCore hands out kernel cores round-robin for service shards.
func (k *Kernel) nextKernelCore() int {
	c := k.kernelCores[k.nextKC%len(k.kernelCores)]
	k.nextKC++
	return c
}

// Register creates a service with the given shard count (0 = one shard
// per kernel core) and starts its handler threads on kernel cores. Every
// shard runs the same handler; services whose shards carry private state
// (e.g. the netstack's per-shard connection tables) use RegisterEach.
func (k *Kernel) Register(name string, shards int, h Handler) *Service {
	return k.RegisterEach(name, shards, func(int) Handler { return h })
}

// RegisterEach creates a sharded service where mk(i) builds the handler
// for shard i. Because each shard is a single thread, state owned by its
// handler closure needs no locks — per-object serialisation falls out of
// the routing, which is the paper's whole point.
func (k *Kernel) RegisterEach(name string, shards int, mk func(shard int) Handler) *Service {
	if _, dup := k.services[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate service %q", name))
	}
	if shards <= 0 {
		shards = len(k.kernelCores)
	}
	s := &Service{Name: name, replyName: name + ".reply", rt: k.RT}
	for i := 0; i < shards; i++ {
		ch := k.RT.NewChan(fmt.Sprintf("%s.%d", name, i), k.SyscallQueueDepth)
		s.shards = append(s.shards, ch)
		h := mk(i)
		tn := fmt.Sprintf("ksvc:%s.%d", name, i)
		th := k.RT.Boot(tn, func(t *core.Thread) {
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				rec, isReq := v.(*Request)
				if !isReq {
					panic(fmt.Sprintf("kernel: service %q shard %d received %T, want *kernel.Request (from Service.Send or Service.Inject)", name, i, v))
				}
				req := s.free.Take(rec)
				out := h(t, req)
				s.Ops++
				if req.Reply != nil && out != Deferred {
					req.Reply.Send(t, out)
				}
			}
		}, core.OnCore(k.nextKernelCore()))
		s.threads = append(s.threads, th)
	}
	k.services[name] = s
	return s
}

// Service returns a registered service (nil if absent).
func (k *Kernel) Service(name string) *Service { return k.services[name] }

// Call performs a synchronous system call: send the request message to
// the right shard, then receive the reply. No trap, no mode switch — the
// cost is two message hops. The reply arrives on the calling thread's
// own reply channel (core.Thread.ReplyChan), which dies with it.
func (k *Kernel) Call(t *core.Thread, service string, key int, op string, arg core.Msg) core.Msg {
	s := k.service(service)
	reply := t.ReplyChan()
	s.Send(t, s.ShardFor(key), Request{Op: op, Key: key, Arg: arg, Reply: reply})
	v, _ := reply.Recv(t)
	return v
}

// service returns the named service, panicking (which faults the
// calling thread) if there is none.
func (k *Kernel) service(name string) *Service {
	s := k.services[name]
	if s == nil {
		panic(fmt.Sprintf("kernel: no such service %q", name))
	}
	return s
}

// CallAsync issues the syscall and returns the reply channel immediately;
// the caller can keep computing and collect the reply later, or batch
// many calls (the exception-less FlexSC pattern, without the kernel-visit
// machinery).
func (k *Kernel) CallAsync(t *core.Thread, service string, key int, op string, arg core.Msg) *core.Chan {
	s := k.service(service)
	reply := t.NewChan(s.replyName, 1)
	s.Send(t, s.ShardFor(key), Request{Op: op, Key: key, Arg: arg, Reply: reply})
	return reply
}

// Post sends a request with no reply expected (one-way message).
func (k *Kernel) Post(t *core.Thread, service string, key int, op string, arg core.Msg) {
	s := k.service(service)
	s.Send(t, s.ShardFor(key), Request{Op: op, Key: key, Arg: arg})
}

// serviceNames returns service names in sorted order (map iteration
// order would make shutdown nondeterministic).
func (k *Kernel) serviceNames() []string {
	return detmap.Keys(k.services)
}

// Stop closes all service channels; service threads drain and exit.
func (k *Kernel) Stop(t *core.Thread) {
	for _, n := range k.serviceNames() {
		for _, ch := range k.services[n].shards {
			if !ch.Closed() {
				ch.Close(t)
			}
		}
	}
}
