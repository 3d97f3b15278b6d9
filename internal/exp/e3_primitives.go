package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/ipc"
	"chanos/internal/stats"
)

func init() {
	register("E3", "Table 2: primitive costs — lightweight vs middleweight (§1, §2)", e3Primitives)
	register("E11", "Figure 6: choice cost vs width and implementation (§5)", e11Choice)
	register("E12", "Table 6: copy semantics — strict vs zero-copy (§3)", e12Copy)
}

// timeOp runs setup once and measures the average virtual-cycle cost of n
// iterations of op in a fresh world.
func timeOp(o Options, cores int, cfg core.Config, run func(w *world) (iters int)) float64 {
	w := newWorld(cores, o.seed(), cfg)
	defer w.close()
	iters := run(w)
	return float64(w.eng.Now()) / float64(iters)
}

func e3Primitives(o Options) []*stats.Table {
	const n = 400
	tb := stats.NewTable("E3 / Table 2: primitive operation costs (cycles/op, simulated)",
		"primitive", "cycles", "vs procedure call")

	// Procedure call: the paper's yardstick — "sending a message is an
	// action comparable in scope to making a procedure call" (§1).
	procCall := timeOp(o, 2, core.Config{}, func(w *world) int {
		w.rt.Boot("p", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				t.Compute(10) // modeled call+body cost
			}
		})
		w.rt.Run()
		return n
	})

	pingPong := func(capacity int, sameCore bool) float64 {
		return timeOp(o, 4, core.Config{}, func(w *world) int {
			ch := w.rt.NewChan("c", capacity)
			rxCore := 1
			if sameCore {
				rxCore = 0
			}
			w.rt.Boot("rx", func(t *core.Thread) {
				for i := 0; i < n; i++ {
					ch.Recv(t)
				}
			}, core.OnCore(rxCore))
			w.rt.Boot("tx", func(t *core.Thread) {
				for i := 0; i < n; i++ {
					ch.Send(t, i)
				}
			}, core.OnCore(0))
			w.rt.Run()
			return n
		})
	}
	sendRendezvousX := pingPong(0, false)
	sendBufferedX := pingPong(64, false)
	sendBufferedSame := pingPong(64, true)

	spawn := timeOp(o, 4, core.Config{}, func(w *world) int {
		w.rt.Boot("spawner", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				t.Spawn("child", func(t2 *core.Thread) {})
			}
		})
		w.rt.Run()
		return n
	})

	chanAlloc := timeOp(o, 2, core.Config{}, func(w *world) int {
		w.rt.Boot("a", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				t.NewChan("x", 1)
			}
		})
		w.rt.Run()
		return n
	})

	mach := timeOp(o, 4, core.Config{}, func(w *world) int {
		p := ipc.NewMachPort(w.rt, 16)
		w.rt.Boot("rx", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				p.Recv(t, 64)
			}
		}, core.OnCore(1))
		w.rt.Boot("tx", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				p.Send(t, i, 64)
			}
		}, core.OnCore(0))
		w.rt.Run()
		return n
	})

	l4 := timeOp(o, 4, core.Config{}, func(w *world) int {
		s := ipc.NewL4Server(w.rt, "srv", func(t *core.Thread, arg core.Msg) core.Msg {
			return arg
		}, core.OnCore(1))
		w.rt.Boot("client", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				s.Call(t, i)
			}
			s.Stop(t)
		}, core.OnCore(0))
		w.rt.Run()
		return n
	})

	trap := timeOp(o, 2, core.Config{}, func(w *world) int {
		w.rt.Boot("t", func(t *core.Thread) {
			for i := 0; i < n; i++ {
				t.Compute(w.m.TrapCost())
			}
		})
		w.rt.Run()
		return n
	})

	row := func(name string, v float64) {
		tb.AddRow(name, stats.F(v), stats.Ratio(v, procCall))
	}
	row("procedure call", procCall)
	row("send (buffered, same core)", sendBufferedSame)
	row("send (buffered, cross core)", sendBufferedX)
	row("send+sync (rendezvous, cross core)", sendRendezvousX)
	row("thread spawn", spawn)
	row("channel allocation", chanAlloc)
	row("Mach-port message (middleweight)", mach)
	row("L4 sync IPC (call+reply)", l4)
	row("trap pair (mode switch + pollution)", trap)
	tb.Note("claim (§1): lightweight send is within a small factor of a procedure call;")
	tb.Note("middleweight messages (Mach) and traps are 1-2 orders costlier (§2)")
	return []*stats.Table{tb}
}

func e11Choice(o Options) []*stats.Table {
	widths := []int{2, 8, 32, 128}
	if o.Quick {
		widths = []int{2, 8, 32}
	}
	const rounds = 200
	tb := stats.NewTable("E11 / Figure 6: Choose cost vs width k",
		"k", "waiters (cycles/op)", "poll (cycles/op)", "poll wasted polls/op")

	run := func(k int, impl core.ChooseImpl) (perOp float64, polls float64) {
		w := newWorld(4, o.seed(), core.Config{Choose: impl})
		defer w.close()
		chans := make([]*core.Chan, k)
		cases := make([]core.Case, k)
		for i := range chans {
			chans[i] = w.rt.NewChan(fmt.Sprintf("c%d", i), 1)
			cases[i] = core.Case{Ch: chans[i], Dir: core.RecvDir}
		}
		w.rt.Boot("chooser", func(t *core.Thread) {
			for i := 0; i < rounds; i++ {
				t.Choose(cases...)
			}
		}, core.OnCore(0))
		w.rt.Boot("producer", func(t *core.Thread) {
			rng := t.Runtime()
			_ = rng
			for i := 0; i < rounds; i++ {
				t.Sleep(1000) // choice must actually wait
				chans[i%k].Send(t, i)
			}
		}, core.OnCore(1))
		w.rt.Run()
		return float64(w.eng.Now()) / rounds, float64(w.rt.Stats().ChoosePolls) / rounds
	}

	for _, k := range widths {
		wcost, _ := run(k, core.ChooseWaiters)
		pcost, polls := run(k, core.ChoosePoll)
		tb.AddRow(fmt.Sprint(k), stats.F(wcost), stats.F(pcost), stats.F(polls))
	}
	tb.Note("claim (§5): 'implementing choice effectively is always somewhat difficult' —")
	tb.Note("waiter registration scales with k only at setup; polling burns cycles while blocked")
	return []*stats.Table{tb}
}

// e12run measures one send/recv pipeline configuration: cycles per op
// and total bytes deep-copied.
func e12run(o Options, strict bool, size int) (float64, uint64) {
	const n = 300
	w := newWorld(4, o.seed(), core.Config{Strict: strict})
	defer w.close()
	ch := w.rt.NewChan("c", 8)
	payload := make([]byte, size)
	w.rt.Boot("rx", func(t *core.Thread) {
		for i := 0; i < n; i++ {
			ch.Recv(t)
		}
	}, core.OnCore(1))
	w.rt.Boot("tx", func(t *core.Thread) {
		for i := 0; i < n; i++ {
			ch.Send(t, payload)
		}
	}, core.OnCore(0))
	w.rt.Run()
	return float64(w.eng.Now()) / n, w.rt.Stats().BytesCopied
}

func e12Copy(o Options) []*stats.Table {
	sizes := []int{16, 256, 4096, 65536}
	tb := stats.NewTable("E12 / Table 6: strict copy vs zero-copy reference passing",
		"payload (B)", "zero-copy (cycles/op)", "strict copy (cycles/op)", "copy tax", "bytes copied")

	for _, s := range sizes {
		zc, _ := e12run(o, false, s)
		sc, copied := e12run(o, true, s)
		tb.AddRow(fmt.Sprint(s), stats.F(zc), stats.F(sc), stats.Ratio(sc, zc), stats.U(copied))
	}
	tb.Note("claim (§3): strict no-shared-memory 'buys scalability at the cost of some memory bandwidth overhead';")
	tb.Note("the tax is negligible for small control messages and real for bulk data")
	return []*stats.Table{tb}
}
