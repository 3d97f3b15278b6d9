// Machine assembly: the one constructor every store-serving machine
// boots through — solo and replicated kvload worlds, cluster nodes,
// replica machines and the experiment worlds alike. Its step order is
// part of the replay contract (a dump replays only against the boot
// that wrote it), so it is fixed here, once:
//
//  1. machine and runtime
//  2. kernel
//  3. NIC
//  4. client wire
//  5. netstack
//  6. store, fresh or recovered from platter snapshots
//  7. replica machines, each booted and attached in order
//  8. statd, with the store, netstack and NIC registered
//  9. Listen on the serving port
//  10. the accept loop thread, booted last
//
// Steps 1–7 and 10 schedule engine events or create runtime objects in
// a fixed order; 8 and 9 schedule nothing, so their place among the
// others cannot move a counted event.
package store

import (
	"encoding/json"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/telemetry"
)

// MachineParams configures one store-serving machine.
type MachineParams struct {
	// Cores on the machine. Default 8.
	Cores int
	// Seed for the machine's runtime.
	Seed uint64
	// Wire models the link to the machine's clients, seed included.
	Wire net.WireParams
	// Store is the store's parameters.
	Store Params
	// Platters, if non-nil, recovers the store from these per-shard
	// device snapshots (Store.Platters of an earlier life) instead of
	// booting fresh devices.
	Platters []map[int][]byte
	// Replicas boot in order and attach before the machine serves
	// (see Attach).
	Replicas []ReplicaMachineParams
	// Port is the serving port. Accept names the accept thread;
	// connection n is served by thread "<Conn>.<n>" running Serve.
	Port   int
	Accept string
	Conn   string
	Serve  func(t *core.Thread, c *net.Conn, kv *Store)
}

// Machine is one store-serving simulated machine: its cores and
// runtime, kernel, NIC, client wire, netstack, store and metric
// daemon, plus the replica machines its store replicates to.
type Machine struct {
	M     *machine.Machine
	RT    *core.Runtime
	K     *kernel.Kernel
	NIC   *machine.NIC
	NW    *net.Network
	Stk   *net.Stack
	KV    *Store
	SD    *telemetry.Statd
	Repls []*ReplicaMachine // attach order
	Port  int
}

// NewMachine boots a machine on eng in the package's boot order. The
// boot is pure construction: run the engine to let it serve.
func NewMachine(eng *sim.Engine, p MachineParams) *Machine {
	if p.Cores <= 0 {
		p.Cores = 8
	}
	m := &Machine{M: machine.New(eng, machine.DefaultParams(p.Cores)), Port: p.Port}
	m.RT = core.NewRuntime(m.M, core.Config{Seed: p.Seed})
	m.K = kernel.New(m.RT, kernel.Config{})
	m.NIC = machine.NewNIC(m.M, machine.NICParams{})
	m.NW = net.NewNetwork(eng, m.NIC, p.Wire)
	m.Stk = net.NewStack(m.RT, m.K, m.NIC, net.StackParams{})
	m.KV = New(m.RT, m.K, p.Store, platterDisks(m.RT, p.Store, p.Platters))
	for _, rp := range p.Replicas {
		m.Attach(rp)
	}
	m.SD = telemetry.NewStatd(eng)
	m.SD.Register("store", m.KV)
	m.SD.Register("net", m.Stk)
	m.SD.Register("nic", m.NIC)
	m.KV.AttachStatd(m.SD)
	m.serve(p.Port, p.Accept, p.Conn, p.Serve)
	return m
}

// serve listens on port and boots the accept loop: thread accept hands
// each connection to a thread of its own running fn. The handler body is
// bound once, and each thread takes its connection as its spawn
// argument.
func (m *Machine) serve(port int, accept, conn string, fn func(*core.Thread, *net.Conn, *Store)) {
	l := m.Stk.Listen(port)
	rt, kv, name := m.RT, m.KV, conn+".%d"
	handle := func(t *core.Thread) { fn(t, t.Arg().(*net.Conn), kv) }
	rt.Boot(accept, func(t *core.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.SpawnArg(rt.Label(name, int(c.ID())), handle, c)
		}
	})
}

// Scrape issues one live STATS request over the wire — a fresh client
// endpoint dials the serving port, sends WStats and parses the snapshot
// out of the response — exactly what an external monitoring agent
// would do, while the machine keeps serving underneath. It drives the
// engine in 25k-cycle steps, at most 400, and returns nil if the scrape
// did not complete in that window.
func (m *Machine) Scrape() *telemetry.Snapshot {
	var snap *telemetry.Snapshot
	done := false
	m.NW.Dial(m.Port, net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) {
			req := KVRequest{Op: WStats, Seq: 1}
			ep.Send(req, req.WireBytes())
		},
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			if resp, ok := payload.(KVResponse); ok && resp.OK {
				var s telemetry.Snapshot
				if json.Unmarshal(resp.Val, &s) == nil {
					snap = &s
				}
			}
			done = true
			ep.Close()
		},
		OnFail: func(*net.Endpoint) { done = true },
	})
	for i := 0; i < 400 && !done; i++ {
		m.RT.RunFor(25_000)
	}
	return snap
}

// Attach boots a replica machine on m's engine and attaches it to m's
// store (AttachReplica) — at boot through MachineParams.Replicas, or
// at runtime. A replica mirrors its primary: zero Cores and a zero
// Store take the primary's, and the replica store always runs the
// primary's shard count.
func (m *Machine) Attach(rp ReplicaMachineParams) *ReplicaMachine {
	if rp.Cores == 0 {
		rp.Cores = m.M.NumCores()
	}
	if rp.Store == (Params{}) {
		rp.Store = m.KV.P
	}
	rp.Store.Shards = m.KV.Shards()
	rm := NewReplicaMachine(m.M.Eng, rp, nil)
	m.KV.AttachReplica(rm)
	m.Repls = append(m.Repls, rm)
	return rm
}

// Shutdown tears down the machine's replica machines, then the machine.
func (m *Machine) Shutdown() {
	for _, rm := range m.Repls {
		rm.Shutdown()
	}
	m.RT.Shutdown()
}

// The kvload serving machine's ports: clients on KVPort, replica reads
// on ReadPort.
const (
	KVPort   = 6379
	ReadPort = 6390
)

// KVMachine is the recipe for the kvload serving machine, which the
// kvload scenario and experiments E15–E17 boot: clients on KVPort,
// served by thread "accept" handing each connection to a "kv.<n>"
// thread running ServeConn, over a client wire seeded like the runtime.
func KVMachine(cores int, seed uint64, sp Params) MachineParams {
	wp := net.DefaultWireParams()
	wp.Seed = seed
	return MachineParams{Cores: cores, Seed: seed, Wire: wp, Store: sp,
		Port: KVPort, Accept: "accept", Conn: "kv", Serve: ServeConn}
}

// KVReplica is the replica machine a KVMachine attaches: runtime seed
// seed+2, inter-machine wire seed+1, and replica reads on ReadPort when
// reads is set.
func KVReplica(seed uint64, reads bool) ReplicaMachineParams {
	rp := ReplicaMachineParams{Seed: seed + 2, Wire: net.DefaultWireParams()}
	rp.Wire.Seed = seed + 1
	if reads {
		rp.ReadPort = ReadPort
	}
	return rp
}

// ReplicaMachineParams configures one replica machine.
type ReplicaMachineParams struct {
	// Cores on the replica machine. Default 8.
	Cores int
	// Seed for the replica machine's runtime. Default 1.
	Seed uint64
	// Port the replica listens on for replication connections.
	// Default 6380.
	Port int
	// ReadPort, if non-zero, serves bounded-staleness replica reads on
	// this port (ServeReplicaReads): GETs only, refused while the
	// bootstrap image is incomplete or the advertised lag exceeds
	// Store.ReplicaLagBound.
	ReadPort int
	// Store is the replica store's parameters. Shards must equal the
	// primary's shard count (AttachReplica enforces it): primary shard
	// i streams to replica shard i, which the shared key hash
	// guarantees once the counts match.
	Store Params
	// Wire models the inter-machine link (delay, jitter, loss, RTO).
	Wire net.WireParams
}

// ReplicaMachine is one replica machine: a Machine (its own cores,
// NIC, netstack, kernel and store with its own per-shard log devices)
// on the same simulation engine as the primary, serving replication
// connections on Port. Replication traffic costs replica cycles
// exactly like client traffic costs primary cycles.
type ReplicaMachine struct {
	*Machine
	ReadPort int // 0 = replica reads not served
}

// NewReplicaMachine boots a replica machine on eng through NewMachine:
// every replication connection gets a serving thread running
// ServeReplica, and with ReadPort set a second accept loop serves
// replica reads. platters carries replica storage over from a previous
// life (recovery); nil boots fresh devices.
func NewReplicaMachine(eng *sim.Engine, p ReplicaMachineParams, platters []map[int][]byte) *ReplicaMachine {
	if p.Port == 0 {
		p.Port = 6380
	}
	rm := &ReplicaMachine{ReadPort: p.ReadPort, Machine: NewMachine(eng, MachineParams{
		Cores: p.Cores, Seed: p.Seed, Wire: p.Wire, Store: p.Store, Platters: platters,
		Port: p.Port, Accept: "repl.accept", Conn: "repl", Serve: ServeReplica,
	})}
	rm.KV.replicaRole = true
	if p.ReadPort != 0 {
		rm.serve(p.ReadPort, "replread.accept", "replread", ServeReplicaReads)
	}
	return rm
}

// Platters snapshots every shard's log device in shard order: exactly
// what a power cut at this instant would leave behind (see
// blockdev.Disk.SnapshotData).
func (s *Store) Platters() []map[int][]byte {
	out := make([]map[int][]byte, len(s.disks))
	for i, d := range s.disks {
		out[i] = d.SnapshotData()
	}
	return out
}

// platterDisks rebuilds log devices on rt from platter snapshots, with
// the geometry a store with params p boots fresh devices with. nil
// platters give nil disks: the store boots fresh.
func platterDisks(rt *core.Runtime, p Params, platters []map[int][]byte) []*blockdev.Disk {
	if platters == nil {
		return nil
	}
	p.fill()
	disks := make([]*blockdev.Disk, len(platters))
	for i, data := range platters {
		disks[i] = blockdev.NewDiskFrom(rt, p.Disk, data)
	}
	return disks
}

// AuditResult is what Audit found on the platters.
type AuditResult struct {
	Survived int    // wanted keys recovered at >= their wanted version
	Lost     int    // wanted keys missing or older
	Replayed uint64 // log records recovery replayed
}

// Audit is the offline durability check: boot a throwaway machine on
// an engine of its own (the audited run's event count never sees it),
// recover a store with params p from platter snapshots alone, and read
// every wanted key back.
func Audit(cores int, seed uint64, p Params, platters []map[int][]byte, want map[string]uint64) AuditResult {
	m := machine.New(sim.NewEngine(), machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	defer rt.Shutdown()
	kv := New(rt, kernel.New(rt, kernel.Config{}), p, platterDisks(rt, p, platters))
	var res AuditResult
	rt.Boot("auditor", func(t *core.Thread) {
		// Sorted key order: the audit's Gets consume engine events, and
		// raw map order would make same-seed audits diverge.
		for key, ver := range detmap.Sorted(want) {
			if g := kv.Get(t, key); g.Found && g.Ver >= ver {
				res.Survived++
			} else {
				res.Lost++
			}
		}
	})
	rt.Run()
	res.Replayed = kv.Counters().Replayed
	return res
}
