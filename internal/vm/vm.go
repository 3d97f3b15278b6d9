// Package vm implements the virtual-memory designs the paper sketches
// (§4, §5). The conservative design keeps a VM service under the
// application: page faults are messages to VM server threads. The
// granularity of those servers is the experiment: one server for
// everything, a thread per region, or — the paper's cautionary example —
// "a thread for every page of physical memory in the system; that would
// produce too many threads no matter how many cores are available" (§5).
// The aggressive (libOS) design handles faults inside the application
// with no messages at all.
package vm

import (
	"errors"
	"fmt"

	"chanos/internal/core"
)

// Granularity picks how many threads the VM service is built of.
type Granularity int

// VM service granularities.
const (
	// LibOS: the aggressive design — no service, faults handled locally.
	LibOS Granularity = iota
	// OneServer: a single VM server thread owns all page tables.
	OneServer
	// PerRegion: one thread per fixed-size region of the address space.
	PerRegion
	// PerPage: one thread per page — the "too many threads" hazard.
	PerPage
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case LibOS:
		return "libos"
	case OneServer:
		return "one-server"
	case PerRegion:
		return "per-region"
	case PerPage:
		return "per-page"
	default:
		return "unknown"
	}
}

// ErrNoFrames is returned when physical memory is exhausted.
var ErrNoFrames = errors.New("vm: out of physical frames")

// faultWork is the cycles to zero-fill and map one page.
const faultWork = 1500

// Config sizes the VM system.
type Config struct {
	Gran        Granularity
	PhysPages   int // physical frames available
	AddrPages   int // virtual pages covered (service-owned)
	RegionPages int // pages per region for PerRegion (default 512)
	FrameShards int // frame-allocator threads (default 4)
}

func (c *Config) fill() {
	if c.RegionPages <= 0 {
		c.RegionPages = 512
	}
	if c.FrameShards <= 0 {
		c.FrameShards = 4
	}
	if c.PhysPages <= 0 {
		c.PhysPages = 1 << 16
	}
	if c.AddrPages <= 0 {
		c.AddrPages = c.PhysPages
	}
}

type faultReq struct {
	vpage uint64
	reply *core.Chan
}

type faultResp struct {
	frame uint32
	err   error
}

type frameReq struct {
	n     int
	reply *core.Chan
}

// VM is one virtual-memory service instance.
type VM struct {
	rt  *core.Runtime
	cfg Config

	servers     []*core.Chan // fault servers (nil for LibOS)
	frameShards []*core.Chan

	// LibOS state (no service): local allocation counters.
	libosFrames int
	libosMaps   map[uint64]uint32

	// ServerThreads is how many threads the chosen granularity spawned.
	ServerThreads int
	// Faults counts service-handled page faults.
	Faults uint64
}

// New builds the VM service with the configured granularity.
func New(rt *core.Runtime, cfg Config) *VM {
	cfg.fill()
	vm := &VM{rt: rt, cfg: cfg}

	if cfg.Gran == LibOS {
		vm.libosMaps = make(map[uint64]uint32)
		return vm
	}

	// Frame allocator shards: each owns a slice of physical frames.
	per := cfg.PhysPages / cfg.FrameShards
	for i := 0; i < cfg.FrameShards; i++ {
		lo := uint32(i * per)
		hi := uint32((i + 1) * per)
		if i == cfg.FrameShards-1 {
			hi = uint32(cfg.PhysPages)
		}
		ch := rt.NewChan(fmt.Sprintf("vmframe.%d", i), 32)
		vm.frameShards = append(vm.frameShards, ch)
		rt.Boot(fmt.Sprintf("vmframe.%d", i), func(t *core.Thread) {
			next := lo
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(frameReq)
				t.Compute(60) // free-list pop
				if next >= hi {
					req.reply.Send(t, faultResp{err: ErrNoFrames})
					continue
				}
				f := next
				next++
				req.reply.Send(t, faultResp{frame: f})
			}
		})
		vm.ServerThreads++
	}

	nServers := 1
	switch cfg.Gran {
	case PerRegion:
		nServers = (cfg.AddrPages + cfg.RegionPages - 1) / cfg.RegionPages
	case PerPage:
		nServers = cfg.AddrPages
	}
	for i := 0; i < nServers; i++ {
		ch := rt.NewChan(fmt.Sprintf("vmsrv.%d", i), 32)
		vm.servers = append(vm.servers, ch)
		shard := vm.frameShards[i%len(vm.frameShards)]
		rt.Boot(fmt.Sprintf("vmsrv.%d", i), func(t *core.Thread) {
			tables := make(map[uint64]uint32)
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(faultReq)
				if f, ok := tables[req.vpage]; ok {
					// Already mapped (racing touch): cheap reply.
					t.Compute(100)
					req.reply.Send(t, faultResp{frame: f})
					continue
				}
				// Allocate a frame, then zero-fill and map.
				fr := t.NewChan("fr", 1)
				shard.Send(t, frameReq{n: 1, reply: fr})
				rv, _ := fr.Recv(t)
				resp := rv.(faultResp)
				if resp.err != nil {
					req.reply.Send(t, resp)
					continue
				}
				t.Compute(faultWork)
				tables[req.vpage] = resp.frame
				vm.Faults++
				req.reply.Send(t, resp)
			}
		})
		vm.ServerThreads++
	}
	return vm
}

// serverFor routes a vpage to its owning server.
func (vm *VM) serverFor(vpage uint64) *core.Chan {
	switch vm.cfg.Gran {
	case OneServer:
		return vm.servers[0]
	case PerRegion:
		return vm.servers[int(vpage)/vm.cfg.RegionPages%len(vm.servers)]
	case PerPage:
		return vm.servers[int(vpage)%len(vm.servers)]
	default:
		return nil
	}
}

// TLB is a client-side mapping cache (software TLB): hits avoid the VM
// service entirely, as real TLBs avoid the kernel.
type TLB struct {
	m map[uint64]uint32
}

// NewTLB returns an empty TLB.
func NewTLB() *TLB { return &TLB{m: make(map[uint64]uint32)} }

// Touch simulates an access to vpage: a TLB hit costs ~1 cycle; a miss
// faults to the VM service (or is handled locally in LibOS mode).
func (vm *VM) Touch(t *core.Thread, tl *TLB, vpage uint64) error {
	if _, ok := tl.m[vpage]; ok {
		t.Compute(1)
		return nil
	}
	if vm.cfg.Gran == LibOS {
		// Aggressive design: the application owns its memory; the fault
		// never leaves the core.
		if f, ok := vm.libosMaps[vpage]; ok {
			t.Compute(100)
			tl.m[vpage] = f
			return nil
		}
		if vm.libosFrames >= vm.cfg.PhysPages {
			return ErrNoFrames
		}
		f := uint32(vm.libosFrames)
		vm.libosFrames++
		t.Compute(faultWork)
		vm.libosMaps[vpage] = f
		tl.m[vpage] = f
		vm.Faults++
		return nil
	}
	reply := t.NewChan("fault.reply", 1)
	vm.serverFor(vpage).Send(t, faultReq{vpage: vpage, reply: reply})
	v, _ := reply.Recv(t)
	resp := v.(faultResp)
	if resp.err != nil {
		return resp.err
	}
	tl.m[vpage] = resp.frame
	return nil
}

// Stop closes all service channels.
func (vm *VM) Stop(t *core.Thread) {
	for _, ch := range vm.servers {
		ch.Close(t)
	}
	for _, ch := range vm.frameShards {
		ch.Close(t)
	}
}
