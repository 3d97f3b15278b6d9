package main

import (
	"fmt"
	"time"

	"chanos"
	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
	"chanos/internal/telemetry"
	"chanos/internal/trace"
)

// runSolo is one untraced repetition of a single-machine workload,
// booted by dump.Build and driven by World.Run, exactly as the program
// ships. The taps stamp each request on the client side: TapReq fires
// when a client draws a request, TapResp when its response lands, so
// their difference is the latency the client pool itself records.
func runSolo(wl *workload, seed uint64) *rep {
	r := &rep{cyclesPerSec: machine.DefaultParams(1).CyclesPerSec}
	t0 := time.Now()
	w := dump.Build(seed, wl.cfg)
	defer w.Close()
	eng := w.Sys.Eng
	var m *meter
	sent := make([]sim.Time, wl.cfg.Clients)
	w.TapReq = func(client int, _ core.Msg) {
		if m == nil {
			r.setup = time.Since(t0).Seconds()
			m = startMeter(eng, false)
		}
		sent[client] = eng.Now()
	}
	w.TapResp = func(client int, _ core.Msg) {
		r.lat = append(r.lat, eng.Now()-sent[client])
	}
	rep := w.Run()
	if m == nil {
		r.problem("prefill never finished: no request was drawn")
		return r
	}
	m.stop(r)
	r.ops, r.attempted = rep.Responses, rep.Responses+rep.Pool.Failed
	r.failed = rep.Errs + rep.Pool.Failed
	r.checkDrive(rep.Stalled, rep.ConservationBad)
	return r
}

// reqStamp is one request's crossing times, in cycles: drawn by its
// client, taken off the connection by the handler, answered by the
// store, handed back to the connection, and received by the client.
type reqStamp struct {
	client                                 int
	op                                     store.WireOp
	sent, recv, applied, replied, received sim.Time
}

// stamper is the traced twin's per-request ledger. Requests are
// numbered from 1 in draw order; the number rides in KVRequest.Seq,
// which the store echoes, so client and handler stamps meet.
type stamper struct {
	reqs    []reqStamp // index = request id; [0] unused
	pending []uint32   // per client: its outstanding request id
	order   []uint32   // ids in response order
}

// serveConn is store.ServeConn with Engine.Now stamped around its three
// calls. Reading the clock costs the simulated machine nothing, so the
// event sequence is the untraced one.
func (s *stamper) serveConn(t *core.Thread, c *net.Conn, kv *store.Store) {
	for {
		v, ok := c.Recv(t)
		if !ok {
			break
		}
		req, ok := v.(store.KVRequest)
		if !ok {
			continue
		}
		recv := t.Now()
		resp := kv.Apply(t, req)
		applied := t.Now()
		c.Send(t, resp, resp.WireBytes())
		st := &s.reqs[req.Seq]
		st.recv, st.applied, st.replied = recv, applied, t.Now()
	}
	c.Close(t)
}

// runTwin is one traced repetition of a single-machine workload. It
// builds a copy of the dump.Build world from the public constructors —
// the same calls in the same order, so the same event sequence — whose
// only difference is the stamping connection handler, then drives it
// with a copy of World.Run. trace.fired_delta checks the copy: it is
// the traced minus the untraced event count and must be 0.
func runTwin(wl *workload, seed uint64) *rep {
	cfg := wl.cfg
	r := &rep{cyclesPerSec: machine.DefaultParams(1).CyclesPerSec, layers: map[string]float64{}}
	t0 := time.Now()

	sys := chanos.New(cfg.Cores, chanos.Config{Seed: seed})
	k := kernel.New(sys.RT, kernel.Config{})
	nic := sys.NewNIC(machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = seed
	wp.LossProb = cfg.Loss
	nw := sys.NewNetwork(nic, wp)
	stk := sys.NewNetStack(k, nic, net.StackParams{})
	kv := sys.NewStore(k, store.Params{Shards: cfg.Shards, LogBlocks: cfg.LogBlocks})
	var rm *store.ReplicaMachine
	if cfg.Replicas > 0 {
		rwp := net.DefaultWireParams()
		rwp.Seed = seed + 1
		rm = store.NewReplicaMachine(sys.Eng, store.ReplicaMachineParams{
			Cores: cfg.Cores, Seed: seed + 2,
			Store: store.Params{Shards: kv.Shards(), LogBlocks: cfg.LogBlocks},
			Wire:  rwp,
		}, nil)
		kv.AttachReplica(rm)
		defer rm.Shutdown()
	}
	defer sys.Shutdown()
	l := stk.Listen(6379)
	sd := telemetry.NewStatd(sys.Eng)
	sd.Register("store", kv)
	sd.Register("net", stk)
	sd.Register("nic", nic)
	kv.AttachStatd(sd)

	st := &stamper{reqs: make([]reqStamp, 1, cfg.Requests+cfg.Clients+1), pending: make([]uint32, cfg.Clients)}
	sys.Boot("accept", func(t *chanos.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.Spawn(fmt.Sprintf("kv.%d", c.ID()), func(ht *core.Thread) {
				st.serveConn(ht, c, kv)
			})
		}
	})
	gen := store.NewWorkload(seed, cfg.Clients, cfg.Keys, cfg.ReadPct, cfg.ValBytes)

	eng := sys.Eng
	filled := false
	sys.Boot("prefill", func(t *chanos.Thread) {
		gen.Prefill(t, kv)
		filled = true
	})
	for !filled {
		sys.RunFor(sys.Cycles(0.0005))
	}

	view := []machineView{{rt: sys.RT, k: k, nic: nic, stk: stk, kv: kv}}
	var m *meter
	var before counters
	var errs uint64
	pool := net.NewClientPool(nw, net.ClientParams{
		Port:        6379,
		Clients:     cfg.Clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        seed,
		MakeReq: func(client, req int) (core.Msg, int) {
			if m == nil {
				r.setup = time.Since(t0).Seconds()
				before = readCounters(eng, view)
				m = startMeter(eng, true)
			}
			msg, n := gen.MakeReq(client, req)
			kr := msg.(store.KVRequest)
			kr.Seq = uint32(len(st.reqs))
			st.pending[client] = kr.Seq
			st.reqs = append(st.reqs, reqStamp{client: client, op: kr.Op, sent: eng.Now()})
			return kr, n
		},
		OnResp: func(client, _ int, payload core.Msg) {
			id := st.pending[client]
			st.reqs[id].received = eng.Now()
			st.order = append(st.order, id)
			r.lat = append(r.lat, eng.Now()-st.reqs[id].sent)
			resp, ok := payload.(store.KVResponse)
			if !ok || resp.Err != "" {
				errs++
			} else if resp.Seq != id {
				r.problem(fmt.Sprintf("client %d got the response to request %d while request %d was outstanding", client, resp.Seq, id))
			}
		},
	})

	slice := sys.Cycles(0.0002)
	var maxLag uint64
	stalled := 0
	for pool.Responses < uint64(cfg.Requests) && stalled < 50 {
		n := pool.Responses
		sys.RunFor(slice)
		for _, s := range kv.LifecycleReport() {
			maxLag = max(maxLag, s.MaxLag)
		}
		if pool.Responses == n {
			stalled++
		} else {
			stalled = 0
		}
	}
	if m == nil {
		r.problem("no request was drawn")
		return r
	}
	m.stop(r)
	r.ops, r.attempted = pool.Responses, pool.Responses+pool.Failed
	r.failed = errs + pool.Failed
	r.checkDrive(stalled >= 50, sd.SnapshotNow().Conservation())

	layerCounters(r.layers, before, readCounters(eng, view), r.ops)
	flushLatency(r, eng, kv)
	r.layers["repl.max_lag"] = float64(maxLag)
	st.segments(r)
	return r
}

// segments turns the stamps into per-layer latencies and the sampled
// spans. A request's four segments partition its end-to-end cycles:
// inbound (client → handler: wire, NIC ring, netstack shard, socket),
// apply (store shard queue, cache or disk, group commit, replica
// votes), send (the handler's Conn.Send), outbound (netstack → NIC →
// wire → client).
func (s *stamper) segments(r *rep) {
	var in, out, get, put []uint64
	var sums []uint64 // per response, in order: the segments' total
	us := float64(r.cyclesPerSec) / 1e6
	for _, id := range s.order {
		q := s.reqs[id]
		if q.recv == 0 || q.sent > q.recv || q.recv > q.applied || q.applied > q.replied || q.replied > q.received {
			r.problem(fmt.Sprintf("request %d: stamps out of order or missing: %+v", id, q))
			continue
		}
		a, b, c, d := q.recv-q.sent, q.applied-q.recv, q.replied-q.applied, q.received-q.replied
		sums = append(sums, a+b+c+d)
		in, out = append(in, a), append(out, d)
		if q.op == store.WGet {
			get = append(get, b)
		} else {
			put = append(put, b)
		}
		if id%64 == 0 {
			span := func(name, cat string, from, to sim.Time) {
				r.spans = append(r.spans, trace.Event{
					Name: name, Cat: cat, Ph: "X", TS: float64(from) / us, Dur: float64(to-from) / us,
					PID: 1, TID: q.client, Args: map[string]any{"req": id, "op": q.op.String()},
				})
			}
			span("request", "client", q.sent, q.received)
			span("inbound", "net", q.sent, q.recv)
			span("apply", "store", q.recv, q.applied)
			span("send", "net", q.applied, q.replied)
			span("outbound", "net", q.replied, q.received)
		}
	}
	r.segSums = sums

	p := func(name string, v []uint64, at float64) {
		r.layers[name] = float64(pct(sortedCopy(v), at)) / us
	}
	p("net.inbound_p50_us", in, 50)
	p("net.inbound_p99_us", in, 99)
	p("net.outbound_p50_us", out, 50)
	p("net.outbound_p99_us", out, 99)
	p("store.get_p50_us", get, 50)
	p("store.get_p99_us", get, 99)
	p("store.put_p50_us", put, 50)
	p("store.put_p99_us", put, 99)

	// Which layer owns the tail: over the requests at or above the
	// end-to-end p99, the mean share of their cycles spent in the store
	// (apply) and in the network path (the other three segments).
	p99 := pct(sortedCopy(r.lat), 99)
	var netShare, storeShare float64
	var n int
	for _, id := range s.order {
		q := s.reqs[id]
		e2e := q.received - q.sent
		if e2e < p99 || e2e == 0 || q.recv == 0 {
			continue
		}
		apply := float64(q.applied - q.recv)
		storeShare += apply / float64(e2e)
		netShare += 1 - apply/float64(e2e)
		n++
	}
	r.layers["tail.net_share"] = ratio(netShare, float64(n))
	r.layers["tail.store_share"] = ratio(storeShare, float64(n))
}
