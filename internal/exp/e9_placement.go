package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/sched"
	"chanos/internal/sim"
	"chanos/internal/stats"
)

func init() {
	register("E9", "Figure 5: thread placement policies (§5)", e9Placement)
}

// e9Pipeline runs P parallel pipelines of S stages each; stage threads
// are spawned with Near hints that locality-aware policies can exploit.
// Returns items/sec through all pipelines.
func e9Pipeline(o Options, cores int, s core.Scheduler) float64 {
	w := newWorld(cores, o.seed(), core.Config{Sched: s})
	defer w.close()
	const stages = 4
	pipelines := cores / 2
	window := sim.Time(3_000_000)
	if o.Quick {
		window = 1_200_000
	}

	counts := make([]uint64, pipelines)
	for p := 0; p < pipelines; p++ {
		p := p
		w.rt.Boot(fmt.Sprintf("pipe.%d", p), func(t *core.Thread) {
			chans := make([]*core.Chan, stages+1)
			for i := range chans {
				chans[i] = t.NewChan(fmt.Sprintf("p%d.s%d", p, i), 4)
			}
			prev := t
			for st := 0; st < stages; st++ {
				st := st
				in, out := chans[st], chans[st+1]
				prev = t.Spawn(fmt.Sprintf("p%d.stage%d", p, st), func(wt *core.Thread) {
					for {
						v, ok := in.Recv(wt)
						if !ok {
							return
						}
						wt.Compute(800)
						out.Send(wt, v)
					}
				}, core.Near(prev))
			}
			// Source and sink in the pipeline owner.
			for seq := 0; ; seq++ {
				chans[0].Send(t, seq)
				chans[stages].Recv(t)
				counts[p]++
			}
		})
	}
	w.rt.RunFor(window)
	var total uint64
	for _, c := range counts {
		total += c
	}
	return w.opsPerSec(total, window)
}

// e9FanOut runs an irregular fork/join workload: a master fans out
// batches of tasks with wildly uneven sizes and no placement hints —
// the regime where work stealing shines and locality has nothing to use.
func e9FanOut(o Options, cores int, s core.Scheduler) float64 {
	w := newWorld(cores, o.seed(), core.Config{Sched: s})
	defer w.close()
	batches := 30
	if o.Quick {
		batches = 15
	}
	rng := sim.NewRNG(o.seed() + 3)
	var completed uint64
	w.rt.Boot("master", func(t *core.Thread) {
		done := t.NewChan("join", cores)
		for b := 0; b < batches; b++ {
			n := cores * 2
			for i := 0; i < n; i++ {
				work := uint64(500 + rng.Intn(20_000)) // heavy-tailed tasks
				t.Spawn("task", func(wt *core.Thread) {
					wt.Compute(work)
					done.Send(wt, 1)
				})
			}
			for i := 0; i < n; i++ {
				done.Recv(t)
				completed++
			}
		}
	})
	w.rt.Run()
	return w.opsPerSec(completed, w.eng.Now())
}

// e9Policy is one row of E9's policy table: a name and a constructor.
type e9Policy struct {
	name string
	mk   func() core.Scheduler
}

// e9Policies is E9's policy table, in row order.
func e9Policies(o Options) []e9Policy {
	return []e9Policy{
		{"round-robin", func() core.Scheduler { return &sched.RoundRobin{} }},
		{"random", func() core.Scheduler { return sched.NewRandom(o.seed()) }},
		{"least-loaded", func() core.Scheduler { return &sched.LeastLoaded{} }},
		{"locality", func() core.Scheduler { return &sched.Locality{} }},
		{"work-stealing", func() core.Scheduler { return sched.NewWorkStealing(o.seed()) }},
	}
}

func e9Placement(o Options) []*stats.Table {
	coreCounts := []int{16, 64}
	if o.Quick {
		coreCounts = []int{16}
	}
	policies := e9Policies(o)
	cols := []string{"policy"}
	for _, c := range coreCounts {
		cols = append(cols, fmt.Sprintf("%d cores", c))
	}
	tb := stats.NewTable("E9 / Figure 5: pipeline throughput by placement policy (items/sec)", cols...)
	for _, p := range policies {
		row := []string{p.name}
		for _, c := range coreCounts {
			row = append(row, stats.F(e9Pipeline(o, c, p.mk())))
		}
		tb.AddRow(row...)
	}
	tb.Note("claim (§5): 'which threads to place on which cores ... is likely to present a new range")
	tb.Note("of difficulties' — locality hints and stealing both beat naive placement, differently")

	fo := stats.NewTable("E9b: irregular fan-out (heavy-tailed tasks, no hints; tasks/sec)",
		"policy", "16 cores")
	for _, p := range policies {
		fo.AddRow(p.name, stats.F(e9FanOut(o, 16, p.mk())))
	}
	fo.Note("the complementary regime: nothing to be local to, plenty to steal —")
	fo.Note("no single policy wins both workloads, which is the paper's point")
	return []*stats.Table{tb, fo}
}
