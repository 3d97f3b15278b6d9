package net

import (
	"testing"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// tw is one test world: machine, runtime, kernel, NIC, wire, stack.
type tw struct {
	eng *sim.Engine
	m   *machine.Machine
	rt  *core.Runtime
	k   *kernel.Kernel
	nic *machine.NIC
	nw  *Network
	st  *Stack
}

func newTW(cores, shards int, wp WireParams, seed uint64) *tw {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: seed})
	k := kernel.New(rt, kernel.Config{})
	nic := machine.NewNIC(m, machine.NICParams{})
	wp.Seed = seed
	nw := NewNetwork(eng, nic, wp)
	st := NewStack(rt, k, nic, StackParams{Shards: shards})
	return &tw{eng: eng, m: m, rt: rt, k: k, nic: nic, nw: nw, st: st}
}

// echoServer accepts on port 80 and echoes every payload back with the
// given app compute per request. Like store.Machine's accept loop, it
// binds the handler once and hands each thread its Conn as its spawn
// argument.
func (w *tw) echoServer(compute uint64) *Listener {
	l := w.st.Listen(80)
	echo := func(t *core.Thread) {
		c := t.Arg().(*Conn)
		for {
			v, ok := c.Recv(t)
			if !ok {
				break
			}
			t.Compute(compute)
			c.Send(t, v, 256)
		}
		c.Close(t)
	}
	w.rt.Boot("accept", func(t *core.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.SpawnArg(w.rt.Label("conn.%d", int(c.ID())), echo, c)
		}
	})
	return l
}

// TestLoopbackEcho drives one connection through the full stack: dial,
// three request/response round trips, close — and checks payload
// fidelity and a clean teardown.
func TestLoopbackEcho(t *testing.T) {
	w := newTW(8, 2, DefaultWireParams(), 3)
	defer w.rt.Shutdown()
	w.echoServer(1000)

	sent := []string{"ping-0", "ping-1", "ping-2"}
	var got []string
	closed := false
	next := 0
	var send func(ep *Endpoint)
	send = func(ep *Endpoint) {
		ep.Send(sent[next], 64)
		next++
	}
	w.nw.Dial(80, EndpointHooks{
		OnOpen: send,
		OnMessage: func(ep *Endpoint, payload core.Msg, bytes int) {
			got = append(got, payload.(string))
			if next < len(sent) {
				send(ep)
			} else {
				ep.Close()
			}
		},
		OnClose: func(*Endpoint) { closed = true },
	})
	w.rt.Run()

	if len(got) != len(sent) {
		t.Fatalf("got %d echoes, want %d: %v", len(got), len(sent), got)
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("echo %d = %q, want %q", i, got[i], sent[i])
		}
	}
	if !closed {
		t.Fatal("connection never completed the close handshake")
	}
	if w.eng.Now() == 0 {
		t.Fatal("no virtual time elapsed")
	}
	if w.st.Counters().Accepts != 1 || w.st.Counters().Delivered != 3 {
		t.Fatalf("stack stats: accepts=%d delivered=%d", w.st.Counters().Accepts, w.st.Counters().Delivered)
	}
}

// replayRun executes a fixed client fleet against the echo server and
// returns a digest of everything observable.
func replayRun(seed uint64) [5]uint64 {
	w := newTW(16, 0, DefaultWireParams(), seed)
	defer w.rt.Shutdown()
	w.echoServer(2000)
	pool := NewClientPool(w.nw, ClientParams{
		Port: 80, Clients: 24, ReqsPerConn: 3, ThinkCycles: 3000, Seed: seed,
	})
	w.rt.RunFor(2_000_000)
	return [5]uint64{pool.Responses, pool.Completed, w.st.Counters().RxPackets, w.st.Counters().TxPackets, w.eng.Fired()}
}

// TestDeterministicReplay: the whole distributed workload — wire jitter,
// shard interleaving, thread scheduling — replays exactly from a seed.
func TestDeterministicReplay(t *testing.T) {
	a := replayRun(5)
	b := replayRun(5)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a[0] == 0 {
		t.Fatal("workload served nothing")
	}
	c := replayRun(6)
	if a == c {
		t.Fatalf("different seeds produced identical digests: %v", a)
	}
}

// lossyPoolRun drives a ClientPool through a lossy wire with an RTO far
// shorter than the think time and a single retry, so that connections
// give up mid-dial, after the server's FIN, and during a client's think
// time, sometimes long enough before the think ends that the client has
// already dialled again. It returns every counter the run moves, and a
// digest of each MakeReq and OnResp call with its client, request index
// and virtual time.
func lossyPoolRun(seed uint64) [16]uint64 {
	wp := WireParams{DelayCycles: 5_000, JitterCycles: 10_000, LossProb: 0.05, RTOCycles: 20_000, MaxRetries: 1}
	w := newTW(8, 2, wp, seed)
	defer w.rt.Shutdown()
	w.echoServer(500)
	digest := uint64(14695981039346656037)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			digest = (digest ^ v) * 1099511628211
		}
	}
	pool := NewClientPool(w.nw, ClientParams{
		Port: 80, Clients: 16, ReqsPerConn: 4, ThinkCycles: 600_000, Seed: seed,
		MakeReq: func(c, r int) (core.Msg, int) {
			mix(1, uint64(c), uint64(r), uint64(w.eng.Now()))
			return r, 64
		},
		OnResp: func(c, r int, payload core.Msg) {
			mix(2, uint64(c), uint64(r), uint64(payload.(int)), uint64(w.eng.Now()))
		},
	})
	w.rt.RunFor(100_000_000)
	sc := w.st.Counters()
	return [16]uint64{
		w.eng.Fired(), pool.Responses, pool.Completed, pool.Failed,
		w.nw.Retransmits, w.nw.GaveUp, w.nw.WireDrops, w.nw.WindowDeferred,
		sc.Accepts, sc.RxPackets, sc.TxPackets, sc.Delivered,
		sc.Retransmits, sc.GaveUp, sc.IdleReaped, digest,
	}
}

// TestClientPoolLossyPin pins one lossy ClientPool run exactly. At this
// seed 21 OnFail hooks arrive from endpoints whose dial already ended
// (GaveUp exceeds Failed), and 17 think-time sends fire after their
// endpoint gave up, 7 of them after their client dialled again: each
// still builds its request with its own dial's index and puts it on
// that endpoint, leaving the client's new dial alone. The pool's
// bookkeeping must send the same requests at the same instants, count
// the same outcomes and move no event.
func TestClientPoolLossyPin(t *testing.T) {
	got := lossyPoolRun(5)
	want := [16]uint64{
		120630, 2394, 582, 30,
		2940, 51, 951, 0,
		624, 9144, 9627, 2412,
		415, 0, 19, 181043764638538402,
	}
	if got != want {
		t.Fatalf("lossy ClientPool run moved:\n got  %v\n want %v", got, want)
	}
	if got[5] <= got[3] {
		t.Fatalf("GaveUp %d <= Failed %d: no late OnFail from a finished endpoint", got[5], got[3])
	}
}

// TestOrderPreservedUnderDelay is the ordering property test: a burst of
// sequenced messages crosses a wire whose jitter is 30x its base delay
// (heavy reordering), in both directions, and must still be delivered to
// the application in send order — on every seed.
func TestOrderPreservedUnderDelay(t *testing.T) {
	const n = 40
	for seed := uint64(1); seed <= 6; seed++ {
		wp := WireParams{DelayCycles: 2_000, JitterCycles: 60_000}
		w := newTW(8, 2, wp, seed)
		var serverGot []int
		l := w.st.Listen(80)
		w.rt.Boot("accept", func(t *core.Thread) {
			for {
				c, ok := l.Accept(t)
				if !ok {
					return
				}
				t.Spawn("conn", func(ht *core.Thread) {
					for {
						v, ok := c.Recv(ht)
						if !ok {
							break
						}
						serverGot = append(serverGot, v.(int))
						c.Send(ht, v, 64)
					}
					c.Close(ht)
				})
			}
		})
		var clientGot []int
		w.nw.Dial(80, EndpointHooks{
			OnOpen: func(ep *Endpoint) {
				for i := 0; i < n; i++ {
					ep.Send(i, 64) // burst: all in flight, jitter reorders
				}
				ep.Close()
			},
			OnMessage: func(ep *Endpoint, payload core.Msg, _ int) {
				clientGot = append(clientGot, payload.(int))
			},
		})
		w.rt.Run()
		for i := 0; i < n; i++ {
			if i >= len(serverGot) || serverGot[i] != i {
				t.Fatalf("seed %d: server order broken at %d: %v", seed, i, serverGot)
			}
			if i >= len(clientGot) || clientGot[i] != i {
				t.Fatalf("seed %d: client order broken at %d: %v", seed, i, clientGot)
			}
		}
		w.rt.Shutdown()
	}
}

// TestLossRecovery: with 15% packet loss in each direction, cumulative
// acks + timeout retransmission must still deliver every message, in
// order, exactly once.
func TestLossRecovery(t *testing.T) {
	const n = 25
	wp := WireParams{DelayCycles: 5_000, JitterCycles: 10_000, LossProb: 0.15, RTOCycles: 120_000}
	w := newTW(8, 2, wp, 11)
	defer w.rt.Shutdown()
	w.echoServer(500)

	var got []int
	sent := 0
	closed := false
	var send func(ep *Endpoint)
	send = func(ep *Endpoint) {
		ep.Send(sent, 64)
		sent++
	}
	w.nw.Dial(80, EndpointHooks{
		OnOpen: send,
		OnMessage: func(ep *Endpoint, payload core.Msg, _ int) {
			got = append(got, payload.(int))
			if sent < n {
				send(ep)
			} else {
				ep.Close()
			}
		},
		OnClose: func(*Endpoint) { closed = true },
	})
	w.rt.Run()

	if !closed {
		t.Fatal("close handshake never completed under loss")
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d messages under loss: %v", len(got), n, got)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("order/duplication broken at %d: %v", i, got)
		}
	}
	if w.st.Counters().Retransmits+w.nw.Retransmits == 0 {
		t.Fatal("15%% loss should have forced retransmissions")
	}
}

// shardRun measures responses served in a fixed window with the given
// shard count, netstack-bound (tiny app compute, many clients).
func shardRun(shards int) uint64 {
	w := newTW(16, shards, DefaultWireParams(), 9)
	defer w.rt.Shutdown()
	w.echoServer(500)
	pool := NewClientPool(w.nw, ClientParams{
		Port: 80, Clients: 64, ReqsPerConn: 4, ThinkCycles: 1000, Seed: 9,
	})
	w.rt.RunFor(3_000_000)
	return pool.Responses
}

// TestShardScalingSanity: two netstack shards must serve at least as
// much as one — independent connections should not serialise.
func TestShardScalingSanity(t *testing.T) {
	one := shardRun(1)
	two := shardRun(2)
	if one == 0 {
		t.Fatal("one-shard run served nothing")
	}
	if two < one {
		t.Fatalf("2 shards (%d responses) served less than 1 shard (%d)", two, one)
	}
}

// TestSlowReaderShedsNotWedges: a connection whose application reads
// far slower than the wire delivers must not stall its shard — the
// stack sheds into retransmission — and a second connection on the
// same shard must keep being served meanwhile.
func TestSlowReaderShedsNotWedges(t *testing.T) {
	w := newTW(8, 1, WireParams{DelayCycles: 2_000, RTOCycles: 40_000}, 17)
	defer w.rt.Shutdown()
	w.st.P.RecvBuf = 2
	const n = 12
	var slowGot []int
	var fastEchoes int
	l := w.st.Listen(80)
	w.rt.Boot("accept", func(at *core.Thread) {
		first := true
		for {
			c, ok := l.Accept(at)
			if !ok {
				return
			}
			slow := first
			first = false
			at.Spawn("conn", func(ht *core.Thread) {
				for {
					v, ok := c.Recv(ht)
					if !ok {
						break
					}
					if slow {
						ht.Sleep(100_000) // read far slower than the burst
						slowGot = append(slowGot, v.(int))
					} else {
						c.Send(ht, v, 64)
					}
				}
				c.Close(ht)
			})
		}
	})
	// Connection 1: bursts n messages at a reader with RecvBuf 2.
	w.nw.Dial(80, EndpointHooks{
		OnOpen: func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Send(i, 64)
			}
			ep.Close()
		},
	})
	// Connection 2 (same single shard): quick echoes, started later.
	w.eng.After(50_000, func() {
		sent := 0
		var send func(ep *Endpoint)
		send = func(ep *Endpoint) { ep.Send(sent, 64); sent++ }
		w.nw.Dial(80, EndpointHooks{
			OnOpen: send,
			OnMessage: func(ep *Endpoint, _ core.Msg, _ int) {
				fastEchoes++
				if sent < 3 {
					send(ep)
				} else {
					ep.Close()
				}
			},
		})
	})
	w.rt.Run()

	if w.st.Counters().RecvFull == 0 {
		t.Fatal("tiny socket buffer never shed under a burst")
	}
	if len(slowGot) != n {
		t.Fatalf("slow reader got %d of %d messages: %v", len(slowGot), n, slowGot)
	}
	for i := 0; i < n; i++ {
		if slowGot[i] != i {
			t.Fatalf("slow reader order broken at %d: %v", i, slowGot)
		}
	}
	if fastEchoes != 3 {
		t.Fatalf("second connection on the shard served %d of 3 echoes", fastEchoes)
	}
}

// TestReceiveWindowThrottles: a burst far larger than the socket buffer
// must be paced by the advertised receive window — most of it held at
// the sender — rather than shed and retransmitted wholesale. Everything
// still arrives, in order.
func TestReceiveWindowThrottles(t *testing.T) {
	const n = 64
	w := newTW(8, 1, WireParams{DelayCycles: 2_000, RTOCycles: 40_000}, 23)
	defer w.rt.Shutdown()
	w.st.P.RecvBuf = 4
	var got []int
	l := w.st.Listen(80)
	w.rt.Boot("accept", func(at *core.Thread) {
		for {
			c, ok := l.Accept(at)
			if !ok {
				return
			}
			at.Spawn("conn", func(ht *core.Thread) {
				for {
					v, ok := c.Recv(ht)
					if !ok {
						break
					}
					ht.Sleep(30_000) // reader slower than the wire
					got = append(got, v.(int))
				}
				c.Close(ht)
			})
		}
	})
	w.nw.Dial(80, EndpointHooks{
		OnOpen: func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Send(i, 64)
			}
			ep.Close()
		},
	})
	w.rt.Run()

	if len(got) != n {
		t.Fatalf("reader got %d of %d messages: %v", len(got), n, got)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if w.nw.WindowDeferred < n/2 {
		t.Fatalf("window deferred only %d of a %d burst into a 4-slot buffer", w.nw.WindowDeferred, n)
	}
	// Without windows the whole overflow retransmits every RTO until the
	// reader catches up; with them, sheds are limited to probe overshoot.
	if w.st.Counters().RecvFull >= n {
		t.Fatalf("socket buffer shed %d packets; the window should have stopped the sender", w.st.Counters().RecvFull)
	}
}

// TestAcceptBacklogSheds: a listener nobody accepts from sheds SYNs once
// its backlog fills, and the shed clients eventually give up.
func TestAcceptBacklogSheds(t *testing.T) {
	w := newTW(8, 1, WireParams{DelayCycles: 1_000, RTOCycles: 50_000, MaxRetries: 2}, 13)
	defer w.rt.Shutdown()
	w.st.P.AcceptBacklog = 2
	w.st.Listen(80) // bind, never accept
	fails := 0
	for i := 0; i < 6; i++ {
		w.nw.Dial(80, EndpointHooks{
			OnFail: func(*Endpoint) { fails++ },
		})
	}
	w.rt.Run()
	if w.st.Counters().AcceptDrops == 0 {
		t.Fatal("full backlog never shed a SYN")
	}
	if fails == 0 {
		t.Fatal("shed clients never gave up")
	}
}

// TestPacketPathAllocs bounds what one steady-state echo round trip
// costs the host: Endpoint → wire → NIC → stack shard → Conn → app
// thread and back. Wire hops, NIC completions, injections and packet
// records are recycled, flows reuse their rings and scratch slices,
// blocked receivers reuse their waiters, and every kernel request (the
// rx request of each arriving DATA and ACK, the app's tx request) and
// its rx or tx argument rides a pooled record, so a warm round trip
// allocates nothing. A per-packet closure or boxing coming back adds at
// least one allocation per round trip.
func TestPacketPathAllocs(t *testing.T) {
	w := newTW(8, 2, DefaultWireParams(), 5)
	defer w.rt.Shutdown()
	w.echoServer(1000)
	var ping core.Msg = "ping"
	echoed := 0
	ep := w.nw.Dial(80, EndpointHooks{
		OnOpen:    func(ep *Endpoint) { ep.Send(ping, 64) },
		OnMessage: func(ep *Endpoint, _ core.Msg, _ int) { echoed++; ep.Send(ping, 64) },
	})
	const trips = 200
	roundTrips := func() {
		for target := echoed + trips; echoed < target; {
			w.eng.Step()
		}
	}
	roundTrips()
	roundTrips()
	per := testing.AllocsPerRun(10, roundTrips) / trips
	t.Logf("%.2f allocs per echo round trip", per)
	if per > 0.5 {
		t.Fatalf("an echo round trip allocates %.2f, want <= 0.5", per)
	}
	if !ep.Open() || w.nw.Retransmits != 0 {
		t.Fatalf("connection open %v, %d retransmits: not a steady state", ep.Open(), w.nw.Retransmits)
	}
}

// TestConnCycleAllocs pins what one warm connection lifecycle costs the
// host: Dial, one echo, Close from both sides, and the run to quiet.
// The stack's connection record, both flows on each side with their
// rings and scratch slices, and both RTO callbacks are recycled; the
// socket channel's waiter array comes from its runtime's pool, and the
// handler's steps fire through its reused worker. Both names are
// written into the runtime's label chunk, the socket channel lives in
// its Conn, and the handler is bound once and takes its Conn as its
// spawn argument. What is left is exactly these 3 objects, each held by
// a caller:
//   - the Endpoint, which the dialer holds;
//   - the Conn with its socket channel, which the handler holds;
//   - the echo handler's Thread, which its runtime holds while it runs.
//
// The cycles measured start past id 600. A name going back through
// fmt.Sprintf would box every id past 255 and add one allocation per
// cycle, as would a per-connection record that stops being recycled, a
// socket channel of its own or a spawn closure.
func TestConnCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	w := newTW(8, 2, DefaultWireParams(), 5)
	defer w.rt.Shutdown()
	w.echoServer(1000)
	var ping core.Msg = "ping"
	hooks := EndpointHooks{
		OnOpen:    func(ep *Endpoint) { ep.Send(ping, 64) },
		OnMessage: func(ep *Endpoint, _ core.Msg, _ int) { ep.Close() },
	}
	cycle := func() {
		w.nw.Dial(80, hooks)
		w.rt.Run()
	}
	for i := 0; i < 600; i++ {
		cycle()
	}
	const want = 3
	if per := testing.AllocsPerRun(200, cycle); per != want {
		t.Fatalf("a dial → echo → close cycle allocates %.0f, want %d", per, want)
	}
	if c := w.st.Counters(); c.Accepts != 801 || c.Delivered != 801 || c.Retransmits != 0 || len(w.nw.eps) != 0 {
		t.Fatalf("accepts %d, delivered %d, %d retransmits, %d endpoints left: not clean cycles",
			c.Accepts, c.Delivered, c.Retransmits, len(w.nw.eps))
	}
}

// In strict mode a message is deep-copied at each send, but a Conn is a
// capability like a channel: the handler must receive the Conn whose
// socket channel the shard delivers to, not a copy holding a copy of it.
func TestStrictModePassesConnByReference(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(8))
	rt := core.NewRuntime(m, core.Config{Seed: 3, Strict: true})
	defer rt.Shutdown()
	k := kernel.New(rt, kernel.Config{})
	nic := machine.NewNIC(m, machine.NICParams{})
	wp := DefaultWireParams()
	wp.Seed = 3
	w := &tw{eng: eng, m: m, rt: rt, k: k, nic: nic, nw: NewNetwork(eng, nic, wp), st: NewStack(rt, k, nic, StackParams{Shards: 2})}
	w.echoServer(1000)
	var got core.Msg
	w.nw.Dial(80, EndpointHooks{
		OnOpen:    func(ep *Endpoint) { ep.Send("ping", 64) },
		OnMessage: func(ep *Endpoint, p core.Msg, _ int) { got = p; ep.Close() },
	})
	rt.Run()
	if got != "ping" || rt.Stats().BytesCopied == 0 {
		t.Fatalf("strict echo got %v with %d bytes copied, want ping and copies", got, rt.Stats().BytesCopied)
	}
}
