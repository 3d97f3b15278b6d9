package kernel

import (
	"runtime"
	"testing"
	"weak"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 17})
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestKernelCoreCarving(t *testing.T) {
	rt := newRT(t, 16)
	k := New(rt, Config{KernelCoreFraction: 0.25})
	if got := len(k.KernelCores()); got != 4 {
		t.Fatalf("kernel cores = %d, want 4", got)
	}
	for _, c := range k.KernelCores() {
		if !k.IsKernelCore(c) {
			t.Fatalf("IsKernelCore(%d) false", c)
		}
	}
	if k.IsKernelCore(1) {
		t.Fatal("core 1 should not be a kernel core with stride 4")
	}
}

func TestKernelCoreMinimumOne(t *testing.T) {
	rt := newRT(t, 2)
	k := New(rt, Config{KernelCoreFraction: 0.1})
	if len(k.KernelCores()) != 1 {
		t.Fatalf("kernel cores = %d, want 1", len(k.KernelCores()))
	}
}

func TestSyscallRoundTrip(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	k.Register("echo", 2, func(t *core.Thread, req Request) core.Msg {
		t.Compute(100)
		return req.Arg
	})
	var got core.Msg
	rt.Boot("app", func(th *core.Thread) {
		got = k.Call(th, "echo", 3, "ping", 1234)
		k.Stop(th)
	})
	rt.Run()
	if got != 1234 {
		t.Fatalf("syscall returned %v", got)
	}
	if k.Service("echo").Ops != 1 {
		t.Fatalf("ops = %d", k.Service("echo").Ops)
	}
}

func TestShardRouting(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	// Handler returns which shard served the request, via thread name.
	k.Register("which", 4, func(t *core.Thread, req Request) core.Msg {
		return t.Name()
	})
	results := map[int]string{}
	rt.Boot("app", func(th *core.Thread) {
		for key := 0; key < 8; key++ {
			results[key] = k.Call(th, "which", key, "q", nil).(string)
		}
		k.Stop(th)
	})
	rt.Run()
	// Same key -> same shard; keys 4 apart share a shard.
	for key := 0; key < 4; key++ {
		if results[key] != results[key+4] {
			t.Fatalf("keys %d and %d landed on different shards", key, key+4)
		}
	}
	distinct := map[string]bool{}
	for _, s := range results {
		distinct[s] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("expected 4 shards, saw %d", len(distinct))
	}
}

func TestServiceThreadsRunOnKernelCores(t *testing.T) {
	rt := newRT(t, 16)
	k := New(rt, Config{KernelCoreFraction: 0.25})
	k.Register("svc", 0, func(t *core.Thread, req Request) core.Msg {
		if !k.IsKernelCore(t.Core()) {
			return false
		}
		return true
	})
	allOK := true
	rt.Boot("app", func(th *core.Thread) {
		for key := 0; key < 8; key++ {
			if k.Call(th, "svc", key, "q", nil) != true {
				allOK = false
			}
		}
		k.Stop(th)
	})
	rt.Run()
	if !allOK {
		t.Fatal("a service thread ran off the kernel cores")
	}
}

func TestCallAsyncOverlapsWork(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	k.Register("slow", 1, func(t *core.Thread, req Request) core.Msg {
		t.Compute(100_000)
		return "done"
	})
	var issueTime, collectTime sim.Time
	rt.Boot("app", func(th *core.Thread) {
		reply := k.CallAsync(th, "slow", 0, "q", nil)
		issueTime = th.Now()
		if n := reply.Name(); n != "slow.reply" {
			t.Errorf("async reply channel is named %q, want slow.reply", n)
		}
		th.Compute(100_000) // overlap with the service work
		v, _ := reply.Recv(th)
		collectTime = th.Now()
		if v != "done" {
			t.Error("bad async reply")
		}
		k.Stop(th)
	}, core.OnCore(2)) // off the kernel core so app and service overlap
	rt.Run()
	// The async call must return to the caller long before the service
	// completes; total time should approximate max(two 100k computations)
	// rather than their sum.
	if issueTime > 10_000 {
		t.Fatalf("async issue blocked until %d", issueTime)
	}
	if collectTime > 180_000 {
		t.Fatalf("no overlap: collected at %d", collectTime)
	}
}

func TestPostOneWay(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	seen := 0
	k.Register("sink", 1, func(t *core.Thread, req Request) core.Msg {
		seen++
		return nil
	})
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 5; i++ {
			k.Post(th, "sink", 0, "note", i)
		}
		th.Sleep(100_000) // let the posts drain
		k.Stop(th)
	})
	rt.Run()
	if seen != 5 {
		t.Fatalf("sink saw %d posts, want 5", seen)
	}
}

func TestUnknownServicePanics(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	var exited *core.Thread
	rt.Boot("app", func(th *core.Thread) {
		exited = th
		k.Call(th, "nope", 0, "q", nil)
	})
	rt.Run()
	if exited.ExitReason() == nil {
		t.Fatal("call to unknown service should fault the thread")
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	k.Register("a", 1, func(t *core.Thread, r Request) core.Msg { return nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	k.Register("a", 1, func(t *core.Thread, r Request) core.Msg { return nil })
}

// The syscall path must not involve trap costs: a null syscall should
// cost far less than the trap-based equivalent.
func TestNullSyscallCheaperThanTrap(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	k.Register("null", 1, func(t *core.Thread, req Request) core.Msg { return nil })
	var elapsed sim.Time
	rt.Boot("app", func(th *core.Thread) {
		start := th.Now()
		for i := 0; i < 10; i++ {
			k.Call(th, "null", 0, "null", nil)
		}
		elapsed = th.Now() - start
		k.Stop(th)
	}, core.OnCore(1))
	rt.Run()
	perCall := elapsed / 10
	trapCost := rt.M.TrapCost()
	if perCall >= trapCost {
		t.Fatalf("message syscall %d cycles >= trap cost %d", perCall, trapCost)
	}
}

// A caller's reply channel dies with the caller: the kernel keeps no
// per-thread state, so a churn of short-lived callers (a handler thread
// per connection) leaves nothing behind once those threads exit.
func TestCallReplyChanDiesWithThread(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	var replies []weak.Pointer[core.Chan]
	k.Register("echo", 1, func(t *core.Thread, req Request) core.Msg {
		replies = append(replies, weak.Make(req.Reply))
		return req.Arg
	})
	for i := 0; i < 4; i++ {
		rt.Boot("caller", func(th *core.Thread) {
			k.Call(th, "echo", 0, "ping", i)
			k.Call(th, "echo", 0, "ping", i)
		})
	}
	rt.Run()
	if len(replies) != 8 {
		t.Fatalf("echo served %d calls, want 8", len(replies))
	}
	if n := distinctChans(replies); n != 4 {
		t.Fatalf("4 callers used %d reply channels, want one each", n)
	}
	// A caller's goroutine may still be on its way back to the idle
	// list, holding the thread for a moment: collect until it lets go.
	live := len(replies)
	for try := 0; try < 100 && live > 0; try++ {
		runtime.GC()
		runtime.Gosched()
		live = 0
		for _, w := range replies {
			if w.Value() != nil {
				live++
			}
		}
	}
	if live > 0 {
		t.Fatalf("%d of 8 calls' reply channels are still reachable after their callers died", live)
	}
	runtime.KeepAlive(k)
}

// Threads of two runtimes on one engine can share a thread id. Calling
// one kernel at the same time, each must still get its own reply: reply
// channels belong to threads, not to thread ids.
func TestSameIDCallersOnTwoRuntimesKeepTheirReplies(t *testing.T) {
	eng := sim.NewEngine()
	var rts [2]*core.Runtime
	for i := range rts {
		rts[i] = core.NewRuntime(machine.New(eng, machine.DefaultParams(4)), core.Config{Seed: 17})
		t.Cleanup(rts[i].Shutdown)
	}
	var k *Kernel
	var got [2]core.Msg
	var callers [2]*core.Thread
	for i, rt := range rts {
		// Caller 0 waits first, for the slow answer; caller 1 asks for
		// the fast one while caller 0 is still waiting.
		callers[i] = rt.Boot("caller", func(th *core.Thread) {
			th.Sleep(sim.Time(i) * 10_000)
			got[i] = k.Call(th, "delay", 2-i, "ping", nil)
		})
	}
	if callers[0].ID() != callers[1].ID() {
		t.Fatalf("caller ids %d and %d: the test needs them equal", callers[0].ID(), callers[1].ID())
	}
	k = New(rts[0], Config{})
	k.Register("delay", 2, func(t *core.Thread, req Request) core.Msg {
		t.Compute(uint64(req.Key) * 50_000)
		return req.Key
	})
	rts[0].Run()
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("callers got %v and %v, want 2 and 1", got[0], got[1])
	}
}

func distinctChans(ws []weak.Pointer[core.Chan]) int {
	seen := map[*core.Chan]bool{}
	for _, w := range ws {
		seen[w.Value()] = true
	}
	return len(seen)
}

// A message that is not a *Request from Service.Send or Service.Inject
// kills the shard with a panic naming the service, the shard and what
// it received.
func TestWrongMessageNamesServiceShardAndType(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	svc := k.Register("sink", 2, func(*core.Thread, Request) core.Msg { return nil })
	rt.Boot("app", func(th *core.Thread) {
		svc.Shard(1).Send(th, Request{Op: "raw"})
	})
	rt.Run()
	err := svc.threads[1].ExitReason()
	want := `panic: kernel: service "sink" shard 1 received kernel.Request, want *kernel.Request (from Service.Send or Service.Inject)`
	if err == nil || err.Error() != want {
		t.Fatalf("shard 1 exited with %v, want %s", err, want)
	}
	if svc.threads[0].Dead() {
		t.Fatal("shard 0 died with its neighbour")
	}
}

// A Deferred handler keeps req.Reply after its request record went back
// on the free list; later requests reuse that very record, and every
// held reply must still land on its own channel.
func TestDeferredReplySurvivesRecordReuse(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	var held []Request
	svc := k.Register("batch", 1, func(t *core.Thread, req Request) core.Msg {
		if req.Op != "release" {
			held = append(held, req)
			return Deferred
		}
		for _, h := range held {
			h.Reply.Send(t, h.Arg)
		}
		held = nil
		return nil
	})
	const n = 8
	var recs []*Request
	got := make([]core.Msg, n)
	rt.Boot("app", func(th *core.Thread) {
		replies := make([]*core.Chan, n)
		for i := range replies {
			replies[i] = th.NewChan("held.reply", 1)
			rec := svc.free.Hold(Request{Op: "hold", Arg: i, Reply: replies[i]})
			recs = append(recs, rec)
			svc.Shard(0).Send(th, rec)
			th.Sleep(10_000) // the shard takes it before the next goes out
		}
		k.Post(th, "batch", 0, "release", nil)
		for i, r := range replies {
			got[i], _ = r.Recv(th)
		}
		k.Stop(th)
	}, core.OnCore(1))
	rt.Run()
	for i, rec := range recs {
		if rec != recs[0] {
			t.Fatalf("request %d rode a fresh record: the free list was not reused", i)
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reply %d carried %v", i, v)
		}
	}
}

// In strict (shared-nothing) mode the runtime deep-copies the *Request
// at the send, so the handler works on its own copy of the argument and
// the record it recycles is that copy, never the sender's.
func TestStrictModeServiceRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(4))
	rt := core.NewRuntime(m, core.Config{Seed: 17, Strict: true})
	t.Cleanup(rt.Shutdown)
	k := New(rt, Config{})
	k.Register("scribble", 1, func(t *core.Thread, req Request) core.Msg {
		b := req.Arg.([]int)
		b[0] = -1
		return b
	})
	sent := []int{1, 2, 3}
	var got []int
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 2; i++ {
			got = k.Call(th, "scribble", 0, "w", sent).([]int)
		}
		k.Stop(th)
	})
	rt.Run()
	if sent[0] != 1 {
		t.Fatalf("the handler wrote through to the sender's argument: %v", sent)
	}
	if got[0] != -1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("strict round trip returned %v", got)
	}
}

// TestSyscallPathAllocs bounds what one steady-state synchronous call
// costs the host: the request rides a pooled record, the caller's reply
// channel is made once, and a blocked receiver reuses its waiter, so a
// warm Call with a nil argument and reply allocates nothing.
func TestSyscallPathAllocs(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	k.Register("null", 1, func(*core.Thread, Request) core.Msg { return nil })
	calls := 0
	rt.Boot("app", func(th *core.Thread) {
		for {
			k.Call(th, "null", 0, "null", nil)
			calls++
		}
	}, core.OnCore(1))
	const n = 200
	roundTrips := func() {
		for target := calls + n; calls < target; {
			rt.Eng.Step()
		}
	}
	roundTrips()
	per := testing.AllocsPerRun(10, roundTrips) / n
	t.Logf("%.3f allocs per call", per)
	if per > 0.05 {
		t.Fatalf("a synchronous call allocates %.3f, want <= 0.05", per)
	}
}
