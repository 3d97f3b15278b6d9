package core

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/sim/fifo"
)

// newRT builds a runtime over a fresh machine for tests.
func newRT(t *testing.T, cores int, cfg Config) *Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := NewRuntime(m, cfg)
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestSpawnAndCompute(t *testing.T) {
	rt := newRT(t, 4, Config{})
	done := false
	var when sim.Time
	rt.Boot("worker", func(th *Thread) {
		th.Compute(1000)
		when = th.Now()
		done = true
	})
	rt.Run()
	if !done {
		t.Fatal("thread did not run")
	}
	if when < 1000 {
		t.Fatalf("compute finished at %d, want >= 1000", when)
	}
	if got := rt.Stats().Exits; got != 1 {
		t.Fatalf("exits = %d, want 1", got)
	}
}

func TestComputeAccumulatesOnCore(t *testing.T) {
	rt := newRT(t, 1, Config{})
	rt.Boot("w", func(th *Thread) {
		th.Compute(100)
		th.Compute(200)
	})
	rt.Run()
	if busy := rt.M.Core(0).BusyCycles; busy < 300 {
		t.Fatalf("core busy %d cycles, want >= 300", busy)
	}
}

func TestRendezvousSendThenRecv(t *testing.T) {
	rt := newRT(t, 4, Config{})
	ch := rt.NewChan("ch", 0)
	var got Msg
	var sendDone, recvDone sim.Time
	rt.Boot("sender", func(th *Thread) {
		ch.Send(th, 42)
		sendDone = th.Now()
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(5000) // ensure sender blocks first
		v, ok := ch.Recv(th)
		if !ok {
			t.Error("recv not ok")
		}
		got = v
		recvDone = th.Now()
	})
	rt.Run()
	if got != 42 {
		t.Fatalf("received %v, want 42", got)
	}
	if sendDone < 5000 {
		t.Fatalf("blocking send completed at %d, before receiver arrived", sendDone)
	}
	if recvDone == 0 {
		t.Fatal("receiver never finished")
	}
	if rt.Stats().Rendezvous != 1 {
		t.Fatalf("rendezvous count = %d, want 1", rt.Stats().Rendezvous)
	}
}

func TestRendezvousRecvThenSend(t *testing.T) {
	rt := newRT(t, 4, Config{})
	ch := rt.NewChan("ch", 0)
	var got Msg
	rt.Boot("receiver", func(th *Thread) {
		v, _ := ch.Recv(th)
		got = v
	})
	rt.Boot("sender", func(th *Thread) {
		th.Sleep(5000)
		ch.Send(th, "hello")
	})
	rt.Run()
	if got != "hello" {
		t.Fatalf("received %v, want hello", got)
	}
}

func TestBufferedSendDoesNotBlock(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("buf", 8)
	var sendDone sim.Time
	var received []int
	rt.Boot("sender", func(th *Thread) {
		for i := 0; i < 4; i++ {
			ch.Send(th, i)
		}
		sendDone = th.Now()
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(100000)
		for i := 0; i < 4; i++ {
			v, _ := ch.Recv(th)
			received = append(received, v.(int))
		}
	})
	rt.Run()
	if sendDone >= 100000 {
		t.Fatalf("buffered sends blocked until receiver: done at %d", sendDone)
	}
	for i, v := range received {
		if v != i {
			t.Fatalf("FIFO violated: received %v", received)
		}
	}
}

func TestBufferedSendBlocksWhenFull(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("buf", 2)
	var sendTimes []sim.Time
	rt.Boot("sender", func(th *Thread) {
		for i := 0; i < 3; i++ {
			ch.Send(th, i)
			sendTimes = append(sendTimes, th.Now())
		}
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(50000)
		for i := 0; i < 3; i++ {
			ch.Recv(th)
		}
	})
	rt.Run()
	if len(sendTimes) != 3 {
		t.Fatalf("only %d sends completed", len(sendTimes))
	}
	if sendTimes[1] >= 50000 {
		t.Fatal("second send should fit in buffer")
	}
	if sendTimes[2] < 50000 {
		t.Fatal("third send should have blocked until a receive freed space")
	}
}

func TestTrySendTryRecv(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("ch", 1)
	var r1, r2 bool
	var tryRecvEmpty bool
	rt.Boot("w", func(th *Thread) {
		_, _, ready := ch.TryRecv(th)
		tryRecvEmpty = ready
		r1 = ch.TrySend(th, 1) // fits
		r2 = ch.TrySend(th, 2) // full (value may be in flight; retry once it lands)
		th.Sleep(1000)
		r2 = ch.TrySend(th, 2) // definitely full now
		v, ok, ready := ch.TryRecv(th)
		if !ready || !ok || v != 1 {
			t.Errorf("TryRecv = (%v,%v,%v), want (1,true,true)", v, ok, ready)
		}
	})
	rt.Run()
	if tryRecvEmpty {
		t.Error("TryRecv on empty channel reported ready")
	}
	if !r1 {
		t.Error("TrySend into empty buffer failed")
	}
	if r2 {
		t.Error("TrySend into full buffer succeeded")
	}
}

func TestCloseDrainsThenReportsClosed(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("ch", 4)
	var vals []int
	var closedOK bool
	rt.Boot("sender", func(th *Thread) {
		ch.Send(th, 1)
		ch.Send(th, 2)
		th.Sleep(1000) // let values arrive before closing
		ch.Close(th)
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(10000)
		for {
			v, ok := ch.Recv(th)
			if !ok {
				closedOK = true
				return
			}
			vals = append(vals, v.(int))
		}
	})
	rt.Run()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", vals)
	}
	if !closedOK {
		t.Fatal("receiver never saw closed")
	}
}

func TestCloseWakesBlockedReceiver(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("ch", 0)
	sawClose := false
	rt.Boot("receiver", func(th *Thread) {
		_, ok := ch.Recv(th)
		sawClose = !ok
	})
	rt.Boot("closer", func(th *Thread) {
		th.Sleep(1000)
		ch.Close(th)
	})
	rt.Run()
	if !sawClose {
		t.Fatal("blocked receiver not woken by close")
	}
}

func TestSendOnClosedFaultsThread(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("ch", 1)
	var sender *Thread
	reached := false
	rt.Boot("main", func(th *Thread) {
		ch.Close(th)
		sender = th.Spawn("sender", func(th2 *Thread) {
			ch.Send(th2, 1)
			reached = true
		})
	})
	rt.Run()
	if reached {
		t.Fatal("send on closed channel returned normally")
	}
	if sender.ExitReason() == nil || !errors.Is(sender.ExitReason(), ErrSendClosed) {
		t.Fatalf("exit reason = %v, want ErrSendClosed", sender.ExitReason())
	}
}

func TestChannelOverChannel(t *testing.T) {
	// The paper's plumbing idiom: pass a channel through a channel, then
	// use it to move data directly.
	rt := newRT(t, 4, Config{})
	plumb := rt.NewChan("plumb", 0)
	var got Msg
	rt.Boot("server", func(th *Thread) {
		v, _ := plumb.Recv(th)
		data := v.(*Chan)
		got, _ = data.Recv(th)
	})
	rt.Boot("client", func(th *Thread) {
		data := th.NewChan("data", 0)
		plumb.Send(th, data)
		data.Send(th, "payload")
	})
	rt.Run()
	if got != "payload" {
		t.Fatalf("got %v, want payload", got)
	}
}

func TestCallRPCIdiom(t *testing.T) {
	rt := newRT(t, 4, Config{})
	svc := rt.NewChan("svc", 4)
	rt.Boot("server", func(th *Thread) {
		for {
			v, ok := svc.Recv(th)
			if !ok {
				return
			}
			call := v.(Call)
			th.Compute(100)
			call.Reply.Send(th, call.Arg.(int)*2)
		}
	})
	var results []int
	rt.Boot("client", func(th *Thread) {
		for i := 1; i <= 3; i++ {
			v, ok := th.Call(svc, i)
			if !ok {
				t.Error("call failed")
				return
			}
			results = append(results, v.(int))
		}
		svc.Close(th)
	})
	rt.Run()
	if len(results) != 3 || results[0] != 2 || results[1] != 4 || results[2] != 6 {
		t.Fatalf("results = %v, want [2 4 6]", results)
	}
}

func TestChoosepicksReadyCase(t *testing.T) {
	rt := newRT(t, 2, Config{})
	a := rt.NewChan("a", 1)
	b := rt.NewChan("b", 1)
	var idx int
	var val Msg
	rt.Boot("main", func(th *Thread) {
		b.Send(th, "bee")
		th.Sleep(1000)
		idx, val, _ = th.Choose(
			Case{Ch: a, Dir: RecvDir},
			Case{Ch: b, Dir: RecvDir},
		)
	})
	rt.Run()
	if idx != 1 || val != "bee" {
		t.Fatalf("choose = (%d, %v), want (1, bee)", idx, val)
	}
}

func TestChooseBlocksUntilReady(t *testing.T) {
	rt := newRT(t, 2, Config{})
	a := rt.NewChan("a", 0)
	b := rt.NewChan("b", 0)
	var idx int
	var when sim.Time
	rt.Boot("chooser", func(th *Thread) {
		idx, _, _ = th.Choose(
			Case{Ch: a, Dir: RecvDir},
			Case{Ch: b, Dir: RecvDir},
		)
		when = th.Now()
	})
	rt.Boot("sender", func(th *Thread) {
		th.Sleep(10000)
		b.Send(th, 7)
	})
	rt.Run()
	if idx != 1 {
		t.Fatalf("choose idx = %d, want 1", idx)
	}
	if when < 10000 {
		t.Fatalf("choose completed at %d, before sender", when)
	}
}

func TestChooseDefault(t *testing.T) {
	rt := newRT(t, 1, Config{})
	a := rt.NewChan("a", 0)
	var idx int
	rt.Boot("main", func(th *Thread) {
		idx, _, _ = th.ChooseDefault(Case{Ch: a, Dir: RecvDir})
	})
	rt.Run()
	if idx != -1 {
		t.Fatalf("ChooseDefault on empty = %d, want -1", idx)
	}
}

func TestChooseSendCase(t *testing.T) {
	rt := newRT(t, 2, Config{})
	out := rt.NewChan("out", 0)
	var got Msg
	var idx int
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(1000)
		got, _ = out.Recv(th)
	})
	rt.Boot("chooser", func(th *Thread) {
		idx, _, _ = th.Choose(Case{Ch: out, Dir: SendDir, Val: 99})
	})
	rt.Run()
	if got != 99 {
		t.Fatalf("receiver got %v, want 99", got)
	}
	if idx != 0 {
		t.Fatalf("choose idx = %d, want 0", idx)
	}
}

func TestChooseSendAndRecvMixed(t *testing.T) {
	rt := newRT(t, 4, Config{})
	in := rt.NewChan("in", 0)
	out := rt.NewChan("out", 0)
	var idx int
	rt.Boot("peer", func(th *Thread) {
		th.Sleep(1000)
		in.Send(th, 5) // makes the recv case ready first
	})
	rt.Boot("chooser", func(th *Thread) {
		idx, _, _ = th.Choose(
			Case{Ch: out, Dir: SendDir, Val: 1},
			Case{Ch: in, Dir: RecvDir},
		)
	})
	rt.Run()
	if idx != 1 {
		t.Fatalf("choose picked %d, want 1 (recv)", idx)
	}
}

func TestRecvTimeout(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("never", 0)
	var timedOut bool
	var when sim.Time
	rt.Boot("main", func(th *Thread) {
		_, _, timedOut = th.RecvTimeout(ch, 5000)
		when = th.Now()
	})
	rt.Run()
	if !timedOut {
		t.Fatal("RecvTimeout did not time out")
	}
	if when < 5000 {
		t.Fatalf("timed out at %d, before deadline", when)
	}
}

func TestChoosePollImplementation(t *testing.T) {
	rt := newRT(t, 2, Config{Choose: ChoosePoll})
	a := rt.NewChan("a", 0)
	var idx int
	rt.Boot("chooser", func(th *Thread) {
		idx, _, _ = th.Choose(Case{Ch: a, Dir: RecvDir})
	})
	rt.Boot("sender", func(th *Thread) {
		th.Sleep(2000)
		a.Send(th, 1)
	})
	rt.Run()
	if idx != 0 {
		t.Fatalf("poll choose idx = %d", idx)
	}
	if rt.Stats().ChoosePolls == 0 {
		t.Fatal("poll implementation recorded no polls")
	}
}

func TestSpawnFromThread(t *testing.T) {
	rt := newRT(t, 4, Config{})
	var childCore int
	rt.Boot("parent", func(th *Thread) {
		child := th.Spawn("child", func(th2 *Thread) {
			th2.Compute(10)
		})
		childCore = child.Core()
	})
	rt.Run()
	if childCore < 0 || childCore >= 4 {
		t.Fatalf("child placed on invalid core %d", childCore)
	}
	if rt.Stats().Spawns != 2 {
		t.Fatalf("spawns = %d, want 2", rt.Stats().Spawns)
	}
}

func TestOnCorePlacement(t *testing.T) {
	rt := newRT(t, 8, Config{})
	var got int
	rt.Boot("t", func(th *Thread) { got = th.Core() }, OnCore(5))
	rt.Run()
	if got != 5 {
		t.Fatalf("OnCore(5) placed on %d", got)
	}
}

func TestMigrate(t *testing.T) {
	rt := newRT(t, 4, Config{})
	var before, after int
	rt.Boot("t", func(th *Thread) {
		before = th.Core()
		th.Migrate((before + 1) % 4)
		after = th.Core()
	}, OnCore(0))
	rt.Run()
	if before != 0 || after != 1 {
		t.Fatalf("migrate: before=%d after=%d", before, after)
	}
}

func TestMonitorNormalAndAbnormalExit(t *testing.T) {
	rt := newRT(t, 4, Config{})
	notices := rt.NewChan("notices", 8)
	var got []ExitNotice
	rt.Boot("watcher", func(th *Thread) {
		ok := th.Spawn("ok", func(th2 *Thread) {})
		bad := th.Spawn("bad", func(th2 *Thread) { th2.Fail(errors.New("boom")) })
		th.Monitor(ok, notices)
		th.Monitor(bad, notices)
		for i := 0; i < 2; i++ {
			v, _ := notices.Recv(th)
			got = append(got, v.(ExitNotice))
		}
	})
	rt.Run()
	if len(got) != 2 {
		t.Fatalf("got %d notices, want 2", len(got))
	}
	abnormal := 0
	for _, n := range got {
		if n.Abnorm {
			abnormal++
			if n.Name != "bad" {
				t.Fatalf("abnormal notice for %q, want bad", n.Name)
			}
		}
	}
	if abnormal != 1 {
		t.Fatalf("%d abnormal notices, want 1", abnormal)
	}
}

func TestMonitorAlreadyDead(t *testing.T) {
	rt := newRT(t, 2, Config{})
	notices := rt.NewChan("notices", 1)
	var n ExitNotice
	rt.Boot("main", func(th *Thread) {
		child := th.Spawn("fast", func(th2 *Thread) {})
		th.Sleep(10000) // child exits long before we monitor
		th.Monitor(child, notices)
		v, _ := notices.Recv(th)
		n = v.(ExitNotice)
	})
	rt.Run()
	if n.Name != "fast" {
		t.Fatalf("late monitor notice = %+v", n)
	}
}

func TestLinkKillsPeerOnAbnormalExit(t *testing.T) {
	rt := newRT(t, 4, Config{})
	blocked := rt.NewChan("blocked", 0)
	var peer *Thread
	rt.Boot("main", func(th *Thread) {
		peer = th.Spawn("peer", func(th2 *Thread) {
			blocked.Recv(th2) // parks forever
		})
		crasher := th.Spawn("crasher", func(th2 *Thread) {
			th2.Sleep(1000)
			th2.Fail(errors.New("died"))
		})
		th.Sleep(100)
		peer.Link(crasher)
	})
	rt.Run()
	if !peer.Dead() {
		t.Fatal("linked peer survived abnormal exit")
	}
	if !errors.Is(peer.ExitReason(), ErrLinkedExit) {
		t.Fatalf("peer exit reason = %v", peer.ExitReason())
	}
}

func TestLinkNormalExitDoesNotKill(t *testing.T) {
	rt := newRT(t, 4, Config{})
	survived := false
	rt.Boot("main", func(th *Thread) {
		quiet := th.Spawn("quiet", func(th2 *Thread) {
			th2.Sleep(5000)
			survived = true
		})
		normal := th.Spawn("normal", func(th2 *Thread) {})
		quiet.Link(normal)
	})
	rt.Run()
	if !survived {
		t.Fatal("peer killed by a normal exit")
	}
}

func TestTrapExitsConvertsKillToMessage(t *testing.T) {
	rt := newRT(t, 4, Config{})
	exits := rt.NewChan("exits", 4)
	var notice ExitNotice
	rt.Boot("supervisor-ish", func(th *Thread) {
		th.TrapExits(exits)
		worker := th.Spawn("worker", func(th2 *Thread) {
			th2.Sleep(1000)
			th2.Fail(errors.New("crash"))
		})
		th.Link(worker)
		v, _ := exits.Recv(th)
		notice = v.(ExitNotice)
	})
	rt.Run()
	if notice.Name != "worker" || !notice.Abnorm {
		t.Fatalf("trap-exit notice = %+v", notice)
	}
}

func TestKill(t *testing.T) {
	rt := newRT(t, 4, Config{})
	hang := rt.NewChan("hang", 0)
	var victim *Thread
	rt.Boot("main", func(th *Thread) {
		victim = th.Spawn("victim", func(th2 *Thread) {
			hang.Recv(th2)
		})
		th.Sleep(1000)
		th.Kill(victim)
	})
	rt.Run()
	if !victim.Dead() || !errors.Is(victim.ExitReason(), ErrKilled) {
		t.Fatalf("victim dead=%v reason=%v", victim.Dead(), victim.ExitReason())
	}
}

func TestKillMidCompute(t *testing.T) {
	rt := newRT(t, 4, Config{})
	var victim *Thread
	finished := false
	rt.Boot("main", func(th *Thread) {
		victim = th.Spawn("victim", func(th2 *Thread) {
			th2.Compute(1_000_000)
			finished = true
		})
		th.Sleep(1000)
		th.Kill(victim)
	})
	rt.Run()
	if finished {
		t.Fatal("victim finished compute after kill")
	}
	if !victim.Dead() {
		t.Fatal("victim survived kill")
	}
}

func TestPanicBecomesAbnormalExit(t *testing.T) {
	rt := newRT(t, 2, Config{})
	var child *Thread
	rt.Boot("main", func(th *Thread) {
		child = th.Spawn("panicky", func(th2 *Thread) {
			panic("unexpected")
		})
	})
	rt.Run()
	var pe PanicError
	if !errors.As(child.ExitReason(), &pe) || pe.Value != "unexpected" {
		t.Fatalf("exit reason = %v", child.ExitReason())
	}
}

func TestExitIsNormal(t *testing.T) {
	rt := newRT(t, 2, Config{})
	var child *Thread
	rt.Boot("main", func(th *Thread) {
		child = th.Spawn("exiter", func(th2 *Thread) {
			th2.Exit()
			t.Error("code after Exit ran")
		})
	})
	rt.Run()
	if child.ExitReason() != nil {
		t.Fatalf("Exit() reason = %v, want nil", child.ExitReason())
	}
}

func TestBlockedReportsDeadlockedThreads(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("never", 0)
	rt.Boot("stuck", func(th *Thread) { ch.Recv(th) })
	rt.Run()
	b := rt.Blocked()
	if len(b) != 1 || b[0] != "stuck" {
		t.Fatalf("Blocked() = %v", b)
	}
}

func TestStrictModeCopiesPayloads(t *testing.T) {
	rt := newRT(t, 2, Config{Strict: true})
	ch := rt.NewChan("ch", 1)
	original := []int{1, 2, 3}
	var received []int
	rt.Boot("sender", func(th *Thread) {
		ch.Send(th, original)
		original[0] = 999 // mutation after send must not be visible
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(10000)
		v, _ := ch.Recv(th)
		received = v.([]int)
	})
	rt.Run()
	if received[0] != 1 {
		t.Fatalf("strict mode leaked mutation: %v", received)
	}
	if rt.Stats().BytesCopied == 0 {
		t.Fatal("no copy bytes recorded in strict mode")
	}
}

func TestNonStrictSharesPayloads(t *testing.T) {
	rt := newRT(t, 2, Config{Strict: false})
	ch := rt.NewChan("ch", 1)
	original := []int{1, 2, 3}
	var received []int
	rt.Boot("sender", func(th *Thread) {
		ch.Send(th, original)
		original[0] = 999
	})
	rt.Boot("receiver", func(th *Thread) {
		th.Sleep(10000)
		v, _ := ch.Recv(th)
		received = v.([]int)
	})
	rt.Run()
	if received[0] != 999 {
		t.Fatal("non-strict mode should share the slice")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats) {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.DefaultParams(8))
		rt := NewRuntime(m, Config{Seed: 99})
		defer rt.Shutdown()
		svc := rt.NewChan("svc", 16)
		for i := 0; i < 4; i++ {
			rt.Boot("server", func(th *Thread) {
				for {
					v, ok := svc.Recv(th)
					if !ok {
						return
					}
					th.Compute(200)
					v.(Call).Reply.Send(th, 1)
				}
			})
		}
		boss := rt.NewChan("done", 8)
		for i := 0; i < 8; i++ {
			rt.Boot("client", func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Call(svc, j)
				}
				boss.Send(th, 1)
			})
		}
		rt.Boot("main", func(th *Thread) {
			for i := 0; i < 8; i++ {
				boss.Recv(th)
			}
			svc.Close(th)
		})
		rt.Run()
		return eng.Now(), rt.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("nondeterministic end time: %d vs %d", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("nondeterministic stats:\n%+v\n%+v", s1, s2)
	}
}

func TestManyThreadsManyMessages(t *testing.T) {
	rt := newRT(t, 16, Config{})
	const n = 200
	sink := rt.NewChan("sink", n)
	for i := 0; i < n; i++ {
		i := i
		rt.Boot("w", func(th *Thread) {
			th.Compute(uint64(10 + i%7))
			sink.Send(th, i)
		})
	}
	sum := 0
	rt.Boot("collector", func(th *Thread) {
		for i := 0; i < n; i++ {
			v, _ := sink.Recv(th)
			sum += v.(int)
		}
	})
	rt.Run()
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestYieldSharesCore(t *testing.T) {
	rt := newRT(t, 1, Config{})
	var order []string
	rt.Boot("a", func(th *Thread) {
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	rt.Boot("b", func(th *Thread) {
		order = append(order, "b1")
	})
	rt.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "a1" || order[1] != "b1" || order[2] != "a2" {
		t.Fatalf("yield did not rotate run queue: %v", order)
	}
}

func TestShutdownKillsEverything(t *testing.T) {
	rt := newRT(t, 4, Config{})
	ch := rt.NewChan("hang", 0)
	for i := 0; i < 10; i++ {
		rt.Boot("stuck", func(th *Thread) { ch.Recv(th) })
	}
	rt.Run()
	if rt.Alive() != 10 {
		t.Fatalf("alive = %d, want 10", rt.Alive())
	}
	rt.Shutdown()
	if rt.Alive() != 0 {
		t.Fatalf("alive after shutdown = %d", rt.Alive())
	}
}

// Ten thousand threads queued behind one core drain in arrival order,
// and the run queue rewinds onto the array it grew instead of leaking
// it to a pop-front reslice.
func TestRunQueueDrainsTenThousandThreads(t *testing.T) {
	const n = 10000
	rt := newRT(t, 1, Config{})
	var order []int
	for i := 0; i < n; i++ {
		rt.Boot("w", func(th *Thread) { order = append(order, i) })
	}
	rt.Eng.RunUntil(rt.Eng.Now()) // every Boot has queued its thread
	if got := rt.CoreLoad(0); got != n {
		t.Fatalf("core load %d after booting %d threads", got, n)
	}
	rt.Run()
	if len(order) != n {
		t.Fatalf("%d of %d threads ran", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("thread %d ran %dth", v, i)
		}
	}
	q := &rt.cores[0].runq
	if q.Len() != 0 || cap(q.Live()) < n-1 {
		t.Fatalf("drained run queue: len %d cap %d", q.Len(), cap(q.Live()))
	}
}

// A rendezvous ping-pong allocates at most two host objects per message
// once warm: engine records are recycled, queues keep their arrays and
// every continuation runs through the thread's prebound step.
func TestRendezvousPingPongAllocs(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ping, pong := rt.NewChan("ping", 0), rt.NewChan("pong", 0)
	rt.Boot("a", func(th *Thread) {
		for i := 0; ; i++ {
			ping.Send(th, i)
			pong.Recv(th)
		}
	}, OnCore(0))
	rt.Boot("b", func(th *Thread) {
		for {
			v, _ := ping.Recv(th)
			pong.Send(th, v)
		}
	}, OnCore(1))
	const msgs = 200
	exchange := func() {
		for target := rt.Stats().Sends + msgs; rt.Stats().Sends < target; {
			rt.Eng.Step()
		}
	}
	exchange()
	per := testing.AllocsPerRun(20, exchange) / msgs
	t.Logf("%.2f allocs per message", per)
	if per > 2 {
		t.Fatalf("rendezvous allocates %.2f per message, want <= 2", per)
	}
}

// segTracer records which threads a runtime reports run segments for.
type segTracer struct{ names []string }

func (s *segTracer) RunSegment(tid int, name string, coreID int, start, end sim.Time) {
	s.names = append(s.names, name)
}
func (s *segTracer) Message(ch string, fromCore, toCore int, at sim.Time)  {}
func (s *segTracer) Exit(tid int, name string, at sim.Time, abnormal bool) {}

// Machines on one engine can share a channel. When a thread of runtime A
// completes a receive for a thread of runtime B, the receiver's wake
// runs on A — as the closures it replaced did — and so does the run it
// leads to. The cluster experiments' numbers depend on this.
func TestCrossRuntimeWakeRunsOnArmingRuntime(t *testing.T) {
	eng := sim.NewEngine()
	var trA, trB segTracer
	rtA := NewRuntime(machine.New(eng, machine.DefaultParams(2)), Config{Tracer: &trA})
	rtB := NewRuntime(machine.New(eng, machine.DefaultParams(2)), Config{Tracer: &trB})
	t.Cleanup(rtA.Shutdown)
	t.Cleanup(rtB.Shutdown)
	ch := rtA.NewChan("shared", 0)
	got := false
	rtB.Boot("rx", func(th *Thread) {
		ch.Recv(th)
		got = true
		th.Compute(10)
	})
	rtA.Boot("tx", func(th *Thread) {
		th.Compute(1000) // rx blocks first
		ch.Send(th, 1)
	})
	eng.Run()
	if !got {
		t.Fatal("rx never received")
	}
	if !slices.Contains(trA.names, "rx") {
		t.Fatalf("runtime A ran %v, want rx's post-receive run", trA.names)
	}
}

// A thread woken from a Choose and re-blocked on a different channel is
// never woken through the registration its choice left behind. The
// released record is reused for the new wait, so without generation
// checks the ref still queued on b would alias the wait on c and hand
// b's value to a receive on c.
func TestStaleChoiceRegistrationNeverWakes(t *testing.T) {
	rt := newRT(t, 2, Config{})
	a, b, c := rt.NewChan("a", 0), rt.NewChan("b", 1), rt.NewChan("c", 0)
	var got []Msg
	w := rt.Boot("w", func(th *Thread) {
		_, v, _ := th.Choose(Case{Ch: a, Dir: RecvDir}, Case{Ch: b, Dir: RecvDir})
		got = append(got, v)
		v, _ = c.Recv(th)
		got = append(got, v)
	}, OnCore(0))
	rt.Boot("s", func(th *Thread) {
		th.Sleep(10_000) // w is blocked in its Choose
		choice := slices.Clone(w.waits)
		a.Send(th, "a")
		th.Sleep(10_000) // w is blocked on c, its b registration stale
		if len(w.waits) != 1 || !slices.Contains(choice, w.waits[0]) {
			t.Errorf("w waits on c with a fresh record, want a choice record reused")
		}
		b.Send(th, "b") // must stay in b's buffer
		th.Sleep(10_000)
		c.Send(th, "c")
	}, OnCore(1))
	rt.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("w received %v, want [a c]", got)
	}
	if b.Len() != 1 {
		t.Fatalf("b holds %d values, want its one send still buffered", b.Len())
	}
}

// A thread's goroutine outlives it: the next thread spawned runs on it,
// so a hundred short-lived children need a handful of goroutines, and
// Shutdown stops the idle ones.
func TestThreadGoroutinesReused(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRuntime(machine.New(sim.NewEngine(), machine.DefaultParams(2)), Config{})
	rt.Boot("parent", func(th *Thread) {
		done := th.NewChan("done", 1)
		for i := 0; i < 100; i++ {
			th.Spawn("child", func(ct *Thread) { done.Send(ct, i) })
			done.Recv(th)
		}
	})
	rt.Run()
	if rt.Alive() != 0 || rt.idle.Len() > 3 {
		t.Fatalf("%d threads alive, %d idle goroutines after 101 threads ran one or two at a time", rt.Alive(), rt.idle.Len())
	}
	rt.Shutdown()
	waitGoroutines(t, before)
}

// waitGoroutines fails t unless the goroutine count falls back to before
// within 100 ms: a stopped worker's goroutine exits on its own schedule.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after Shutdown, %d before the runtime", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// A kill is fail-stop even when a deferred function of the victim tries
// a runtime op as it unwinds: the op is answered with the kill too, so
// it charges no cycles, and the victim's coroutine still reaches its
// exit instead of waiting forever for a resumption — whether the kill
// comes from another thread mid-run or from Shutdown.
func TestKillAnswersDeferredOpsWithPoison(t *testing.T) {
	for _, by := range []string{"thread", "shutdown"} {
		t.Run(by, func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := NewRuntime(machine.New(sim.NewEngine(), machine.DefaultParams(2)), Config{})
			hang := rt.NewChan("hang", 0)
			victim := rt.Boot("victim", func(th *Thread) {
				defer th.Compute(100)
				hang.Recv(th)
			}, OnCore(1))
			var killAt sim.Time
			if by == "thread" {
				rt.Boot("killer", func(th *Thread) {
					th.Sleep(1000)
					killAt = th.Now()
					th.Kill(victim)
				}, OnCore(0))
			}
			rt.Run()
			if by == "shutdown" {
				killAt = rt.Eng.Now()
			}
			rt.Shutdown()
			if !victim.Dead() || !errors.Is(victim.ExitReason(), ErrKilled) {
				t.Fatalf("victim dead=%v reason=%v, want killed", victim.Dead(), victim.ExitReason())
			}
			if busy := rt.M.Core(1).BusyUntil(); busy > killAt {
				t.Fatalf("victim's core busy until %d, past the kill at %d: the deferred Compute was charged", busy, killAt)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestSpawnAllocs bounds what a warm spawn of a child that runs to exit
// costs the host. The child runs on an idle worker, whose step (bound
// once per worker) fires its continuations, its Spawn request lives in
// its parent, and when it blocks once on a receive its waiter comes
// from the runtime's free list into the thread's inline waits array and
// the channel's wait-queue array from the runtime's pool. What still
// allocates is the Thread: 1.00 per spawn, measured as a parent that
// spawns the child, sleeps and hands it a nil value, minus the same
// parent only sleeping.
func TestSpawnAllocs(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("ch", 0)
	child := func(th *Thread) { ch.Recv(th) }
	spawn, rounds := false, 0
	rt.Boot("parent", func(th *Thread) {
		for {
			s := spawn
			if s {
				th.Spawn("child", child)
			}
			th.Sleep(1000) // the child is blocked in its Recv
			if s {
				ch.Send(th, nil)
			}
			rounds++
		}
	}, OnCore(0))
	const n = 500
	run := func() {
		for target := rounds + n; rounds < target; {
			rt.Eng.Step()
		}
	}
	measure := func(s bool) float64 {
		spawn = s
		run()
		return testing.AllocsPerRun(10, run) / n
	}
	sleep := measure(false)
	per := measure(true) - sleep
	t.Logf("%.2f allocs per spawn (%.2f per sleep-only round)", per, sleep)
	if per > 1 {
		t.Fatalf("a warm spawn allocates %.2f, want <= 1", per)
	}
}

// A dead thread is garbage once its runtime lets go of it, however it
// died, while its worker sits idle for the next thread: the worker
// yields a thread's exit only after its run has returned, so no frame
// of the dead thread stays on the coroutine's stack, and a released
// waiter — here the Choose registration left queued on b — forgets its
// thread. One collection, with no retry, must reclaim all four.
func TestDeadThreadIsCollectable(t *testing.T) {
	rt := newRT(t, 2, Config{})
	a, b, hang := rt.NewChan("a", 0), rt.NewChan("b", 0), rt.NewChan("hang", 0)
	var dead []weak.Pointer[Thread]
	boot := func(name string, fn func(*Thread)) *Thread {
		th := rt.Boot(name, fn)
		dead = append(dead, weak.Make(th))
		return th
	}
	boot("exits", func(th *Thread) { th.Compute(10) })
	boot("panics", func(th *Thread) {
		th.Compute(10)
		panic("boom")
	})
	boot("chooses", func(th *Thread) {
		th.Choose(Case{Ch: a, Dir: RecvDir}, Case{Ch: b, Dir: RecvDir})
	})
	victim := boot("killed", func(th *Thread) { hang.Recv(th) })
	rt.Boot("driver", func(th *Thread) {
		th.Sleep(1000)
		a.Send(th, 1)
		th.Kill(victim)
	})
	rt.Run()
	if rt.Alive() != 0 || rt.idle.Len() == 0 {
		t.Fatalf("%d threads alive and %d idle workers after the run", rt.Alive(), rt.idle.Len())
	}
	runtime.GC()
	for i, w := range dead {
		if w.Value() != nil {
			t.Errorf("thread %d is still reachable after it died", i)
		}
	}
	runtime.KeepAlive(b)
}

// A thread killed while a step of its own is pending keeps its worker
// until that step has fired, so the step runs against the dead thread
// and never against the next thread the worker runs. The victim is
// killed mid-Compute (the kill cancels that step) or while a wake
// carrying a value is on its way to it across a 100k-cycle hop (the
// wake still fires). The killer then spawns a thread that blocks on a
// channel nobody sends on: were the victim's worker handed to it, the
// stale wake would resume it.
func TestKilledThreadsPendingStepStaysWithIt(t *testing.T) {
	for _, pending := range []string{"compute", "wake"} {
		t.Run(pending, func(t *testing.T) {
			p := machine.DefaultParams(3)
			p.InjectCycles = 100_000
			rt := NewRuntime(machine.New(sim.NewEngine(), p), Config{})
			t.Cleanup(rt.Shutdown)
			ch, hang := rt.NewChan("ch", 0), rt.NewChan("hang", 0)
			victim := rt.Boot("victim", func(th *Thread) {
				if pending == "compute" {
					th.Compute(100_000)
				} else {
					ch.Recv(th)
				}
			}, OnCore(1))
			if pending == "wake" {
				rt.Boot("sender", func(th *Thread) { ch.Send(th, "stale") }, OnCore(0))
			}
			var got []Msg
			rt.Boot("killer", func(th *Thread) {
				th.Sleep(1000) // the victim's step is pending
				th.Kill(victim)
				th.Spawn("next", func(nt *Thread) {
					v, _ := hang.Recv(nt)
					got = append(got, v)
				}, OnCore(1))
			}, OnCore(2))
			rt.Run()
			if !victim.Dead() || !errors.Is(victim.ExitReason(), ErrKilled) || victim.w != nil {
				t.Fatalf("victim dead=%v reason=%v, worker held %v: want killed and its worker let go",
					victim.Dead(), victim.ExitReason(), victim.w != nil)
			}
			if b := rt.Blocked(); len(got) != 0 || len(b) != 1 || b[0] != "next" {
				t.Fatalf("next received %v, blocked threads %v: want nothing received and only next blocked", got, b)
			}
			if rt.Eng.Now() < 100_000 {
				t.Fatalf("the run ended at %d, before the victim's step was due", rt.Eng.Now())
			}
		})
	}
}

// A channel's wait-queue array goes back to its runtime's pool when
// the queue empties or the channel closes, and the next queue that
// needs one adopts it. It must arrive holding nothing of the queue it
// left, live or dead. The array here comes from a closed channel with
// two receivers blocked on it, or from a queue left holding two dead
// refs by Choose cases that lost, which the next value through it
// pops. A third thread then blocks on a fresh channel, whose queue
// must adopt that array holding its ref and nothing else.
func TestPooledWaitArrayCarriesNoStaleWaiter(t *testing.T) {
	whole := func(q *fifo.Queue[waitRef]) []waitRef {
		l := q.Live()
		return l[:cap(l)]
	}
	for _, from := range []string{"close", "choice"} {
		t.Run(from, func(t *testing.T) {
			rt := newRT(t, 2, Config{})
			a, b, c := rt.NewChan("a", 0), rt.NewChan("b", 1), rt.NewChan("c", 0)
			for _, name := range []string{"r1", "r2"} {
				rt.Boot(name, func(th *Thread) {
					if from == "close" {
						a.Recv(th)
					} else {
						th.Choose(Case{Ch: a, Dir: RecvDir}, Case{Ch: b, Dir: RecvDir})
					}
				})
			}
			rt.Run()
			var old []waitRef
			if from == "close" {
				old = whole(&a.recvq)
				rt.CloseAsync(a)
			} else {
				old = whole(&b.recvq)
				rt.InjectSend(a, 1, 0)
				rt.InjectSend(a, 2, 0)
				rt.Run() // both choices win on a: b holds two dead refs
				rt.InjectSend(b, 3, 0)
			}
			rt.Run()
			if len(old) != 2 || rt.Alive() != 0 {
				t.Fatalf("the array held %d refs and %d threads are alive, want 2 and both gone", len(old), rt.Alive())
			}
			var got Msg
			r3 := rt.Boot("r3", func(th *Thread) { got, _ = c.Recv(th) })
			rt.Run()
			adopted := whole(&c.recvq)
			if len(adopted) == 0 || &adopted[0] != &old[0] {
				t.Fatalf("c's queue did not adopt the array its runtime got back")
			}
			if adopted[0].w == nil || adopted[0].w.t != r3 || adopted[0].dead() {
				t.Fatalf("the adopted array's first ref is not r3's live wait")
			}
			for i, r := range adopted[1:] {
				if r != (waitRef{}) {
					t.Fatalf("slot %d of the adopted array still holds a ref of its last queue", i+1)
				}
			}
			rt.InjectSend(c, "v", 0)
			rt.Run()
			if got != "v" || c.recvq.Len() != 0 || cap(c.recvq.Live()) != 0 {
				t.Fatalf("r3 got %v and c's queue kept an array of %d: want v and the array back in the pool", got, cap(c.recvq.Live()))
			}
		})
	}
}

// ReplyChan's channel lives in its Thread, and it is made exactly as
// t.NewChan("syscall.reply", 1) would make it: the same name and
// capacity, 16 cycles charged, and the channel id taken after those
// cycles, here after a thread on another core took one meanwhile. A
// second call charges nothing and returns the same channel.
func TestReplyChanMatchesNewChan(t *testing.T) {
	type made struct {
		name         string
		capacity, id int
		first, again sim.Time
		same         bool
	}
	world := func(reply bool) made {
		rt := newRT(t, 2, Config{})
		var m made
		rt.Boot("caller", func(th *Thread) {
			start := th.Now()
			var c *Chan
			if reply {
				c = th.ReplyChan()
			} else {
				c = th.NewChan("syscall.reply", 1)
			}
			m.first = th.Now() - start
			if reply {
				start = th.Now()
				m.same = th.ReplyChan() == c
				m.again = th.Now() - start
			}
			m.name, m.capacity, m.id = c.Name(), c.Cap(), c.id
		}, OnCore(0))
		rt.Boot("other", func(th *Thread) {
			th.Compute(8)
			th.NewChan("other", 0)
		}, OnCore(1))
		rt.Run()
		return m
	}
	want, got := world(false), world(true)
	if got.name != "syscall.reply" || got.capacity != 1 || got.id != want.id || got.first != want.first || got.first < 16 {
		t.Fatalf("ReplyChan made %q cap %d id %d in %d cycles; NewChan made %q cap %d id %d in %d",
			got.name, got.capacity, got.id, got.first, want.name, want.capacity, want.id, want.first)
	}
	if !got.same || got.again != 0 {
		t.Fatalf("a second ReplyChan returned the same channel %v and charged %d cycles, want true and 0", got.same, got.again)
	}
}

// A SpawnArg thread reads its argument with Arg while it runs, and once
// dead it no longer holds it: a dead thread someone still holds keeps no
// connection alive.
func TestDeadSpawnArgThreadDropsItsArg(t *testing.T) {
	rt := newRT(t, 2, Config{})
	type conn struct {
		id   int
		name string // a pointer field keeps it off the tiny allocator
	}
	var got any
	body := func(th *Thread) { got = th.Arg() }
	var child *Thread
	var held weak.Pointer[conn]
	func() { // so that no variable of the test holds the argument
		arg := &conn{id: 7}
		held = weak.Make(arg)
		rt.Boot("parent", func(th *Thread) { child = th.SpawnArg("child", body, arg) })
		rt.Run()
	}()
	if c, ok := got.(*conn); !ok || c.id != 7 {
		t.Fatalf("the child read Arg %v, want its conn", got)
	}
	got = nil
	runtime.GC()
	if !child.Dead() || child.Arg() != nil || held.Value() != nil {
		t.Fatalf("dead %v, Arg %v, argument reachable %v: a dead thread holds its argument", child.Dead(), child.Arg(), held.Value() != nil)
	}
}
