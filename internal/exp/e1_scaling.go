package exp

import (
	"fmt"

	"chanos/internal/baseline"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/workload"
)

func init() {
	register("E1", "Figure 1: kernel throughput vs cores — locks vs messages (§1)", e1KernelScaling)
	register("A1", "Ablation 1: E1 message kernel vs hardware message cost (§4)", a1MsgCost)
	register("A3", "Ablation 3: E1 message kernel vs kernel-core fraction (§4)", a3KernelFraction)
}

const (
	e1ServiceCycles = 600  // kernel work per syscall
	e1ThinkCycles   = 2000 // app work between syscalls
	e1Objects       = 4096 // kernel objects (inodes, procs, ...)
	e1Skew          = 0.9  // Zipf skew: real workloads have hot objects
	// Fine-grained kernels still share statistics counters; Solaris-era
	// engineering shards them some fixed amount that does not grow with
	// core count.
	e1CounterShards = 16
)

func e1Window(o Options) sim.Time {
	if o.Quick {
		return 2_000_000
	}
	return 8_000_000
}

// e1Lock measures a shared-memory kernel (big-lock or fine-grained).
func e1Lock(o Options, cores int, mode baseline.LockMode) float64 {
	w := newWorld(cores, o.seed(), core.Config{})
	defer w.close()
	k := baseline.NewSharedKernel(w.rt, mode, e1Objects, e1ServiceCycles)
	var counters []*baseline.SharedCounter
	if mode == baseline.FineGrained {
		for i := 0; i < e1CounterShards; i++ {
			counters = append(counters, baseline.NewSharedCounter(w.rt))
		}
	}
	rng := sim.NewRNG(o.seed() + uint64(cores))
	pop := workload.NewPopularity(rng, e1Objects, e1Skew)
	window := e1Window(o)
	ops := closedLoop(w, cores, window,
		func(i int) []core.SpawnOpt { return []core.SpawnOpt{core.OnCore(i)} },
		func(t *core.Thread, i int) {
			t.Compute(e1ThinkCycles)
			obj := pop.Next()
			k.Syscall(t, obj, 100)
			if counters != nil {
				counters[obj%e1CounterShards].Inc(t)
			}
		})
	return w.opsPerSec(ops, window)
}

// e1Msg measures the chanOS message kernel: syscalls are messages to
// sharded service threads on dedicated kernel cores.
func e1Msg(o Options, cores int, kernelFrac float64, params func(*world)) float64 {
	w := newWorld(cores, o.seed(), core.Config{})
	if params != nil {
		params(w)
	}
	defer w.close()
	k := kernel.New(w.rt, kernel.Config{KernelCoreFraction: kernelFrac})
	k.Register("svc", 0, func(t *core.Thread, req kernel.Request) core.Msg {
		t.Compute(e1ServiceCycles)
		return nil
	})
	var appCores []int
	for c := 0; c < cores; c++ {
		if !k.IsKernelCore(c) {
			appCores = append(appCores, c)
		}
	}
	if len(appCores) == 0 {
		appCores = []int{0}
	}
	rng := sim.NewRNG(o.seed() + uint64(cores))
	pop := workload.NewPopularity(rng, e1Objects, e1Skew)
	window := e1Window(o)
	ops := closedLoop(w, len(appCores), window,
		func(i int) []core.SpawnOpt { return []core.SpawnOpt{core.OnCore(appCores[i])} },
		func(t *core.Thread, i int) {
			t.Compute(e1ThinkCycles)
			k.Call(t, "svc", pop.Next(), "op", nil)
		})
	return w.opsPerSec(ops, window)
}

func e1KernelScaling(o Options) []*stats.Table {
	tb := stats.NewTable("E1 / Figure 1: syscall throughput vs cores (ops/sec, simulated)",
		"cores", "biglock", "finegrained", "message", "msg/fine")
	for _, c := range coresSweep(o) {
		big := e1Lock(o, c, baseline.BigLock)
		fine := e1Lock(o, c, baseline.FineGrained)
		msg := e1Msg(o, c, 0.25, nil)
		tb.AddRow(fmt.Sprint(c), stats.F(big), stats.F(fine), stats.F(msg), stats.Ratio(msg, fine))
	}
	tb.Note("claim (§1): lock-based kernels stop scaling around ~100 cores; message kernels keep scaling")
	tb.Note("app threads = all cores (lock kernels) or non-kernel cores (message kernel, 25%% kernel cores)")
	return []*stats.Table{tb}
}

func a1MsgCost(o Options) []*stats.Table {
	const cores = 256
	fine := e1Lock(o, cores, baseline.FineGrained)
	tb := stats.NewTable(fmt.Sprintf("A1: message kernel at %d cores vs hardware message cost", cores),
		"msg cost scale", "MsgBase (cycles)", "ops/sec", "finegrained", "msg/fine")
	for _, scale := range []float64{0.5, 1, 2, 4} {
		scale := scale
		var base uint64
		tput := e1Msg(o, cores, 0.25, func(w *world) {
			w.m.P.MsgBase = uint64(float64(w.m.P.MsgBase) * scale)
			base = w.m.P.MsgBase
		})
		tb.AddRow(fmt.Sprintf("%.1fx", scale), fmt.Sprint(base), stats.F(tput), stats.F(fine), stats.Ratio(tput, fine))
	}
	tb.Note("the model's advantage survives a 4x slower message unit (claim: §4 'native support');")
	tb.Note("the fine-grained kernel sends no messages, so its throughput does not move with MsgBase")
	return []*stats.Table{tb}
}

func a3KernelFraction(o Options) []*stats.Table {
	cores := 64
	tb := stats.NewTable(fmt.Sprintf("A3: kernel-core fraction at %d cores", cores),
		"fraction", "ops/sec")
	for _, f := range []float64{0.125, 0.25, 0.5} {
		tb.AddRow(fmt.Sprintf("%.3f", f), stats.F(e1Msg(o, cores, f, nil)))
	}
	tb.Note("too few kernel cores starves services; too many starves applications")
	return []*stats.Table{tb}
}
