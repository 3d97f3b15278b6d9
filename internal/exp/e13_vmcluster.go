package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim"
	"chanos/internal/stats"
)

func init() {
	register("E13", "Figure 7: the alternative — a chip as a cluster of VMs (§1, §6)", e13VMCluster)
}

const (
	e13Service = 600
	e13Think   = 2000
	// vNIC cost per crossing: guest exit + virtio queue + host switch +
	// guest entry on the other side.
	e13VNIC = 15_000
)

// e13ChanOS: one machine, one message kernel; "remote" data is just
// another shard of the same service.
func e13ChanOS(o Options, cores int, remoteFrac float64, window sim.Time) float64 {
	w := newWorld(cores, o.seed(), core.Config{})
	defer w.close()
	k := kernel.New(w.rt, kernel.Config{KernelCoreFraction: 0.25})
	k.Register("data", 0, func(t *core.Thread, req kernel.Request) core.Msg {
		t.Compute(e13Service)
		return nil
	})
	var appCores []int
	for c := 0; c < cores; c++ {
		if !k.IsKernelCore(c) {
			appCores = append(appCores, c)
		}
	}
	rng := sim.NewRNG(o.seed() + 5)
	shards := k.Service("data").Shards()
	ops := closedLoop(w, len(appCores), window,
		func(i int) []core.SpawnOpt { return []core.SpawnOpt{core.OnCore(appCores[i])} },
		func(t *core.Thread, i int) {
			t.Compute(e13Think)
			key := i % shards
			if rng.Float64() < remoteFrac {
				key = rng.Intn(shards) // data owned elsewhere: same cost
			}
			k.Call(t, "data", key, "get", nil)
		})
	return w.opsPerSec(ops, window)
}

// e13Cluster: the same chip partitioned into VMs of vmSize cores. Each VM
// runs its own kernel service on its first core; remote data requires a
// virtual-NIC round trip into another VM.
func e13Cluster(o Options, cores, vmSize int, remoteFrac float64, window sim.Time) float64 {
	w := newWorld(cores, o.seed(), core.Config{})
	defer w.close()
	nVMs := cores / vmSize

	// Per-VM kernel service thread on the VM's first core.
	services := make([]*core.Chan, nVMs)
	for vm := 0; vm < nVMs; vm++ {
		svc := w.rt.NewChan(fmt.Sprintf("vm%d.svc", vm), 64)
		services[vm] = svc
		w.rt.Boot(fmt.Sprintf("vm%d.kernel", vm), func(t *core.Thread) {
			for {
				v, ok := svc.Recv(t)
				if !ok {
					return
				}
				t.Compute(e13Service)
				v.(core.Call).Reply.Send(t, nil)
			}
		}, core.OnCore(vm*vmSize))
	}

	// App threads on the remaining cores of each VM.
	type app struct{ vm, coreID int }
	var apps []app
	for vm := 0; vm < nVMs; vm++ {
		for c := 1; c < vmSize; c++ {
			apps = append(apps, app{vm: vm, coreID: vm*vmSize + c})
		}
	}
	rng := sim.NewRNG(o.seed() + 5)
	ops := closedLoop(w, len(apps), window,
		func(i int) []core.SpawnOpt { return []core.SpawnOpt{core.OnCore(apps[i].coreID)} },
		func(t *core.Thread, i int) {
			t.Compute(e13Think)
			target := apps[i].vm
			remote := rng.Float64() < remoteFrac
			if remote {
				target = rng.Intn(nVMs)
			}
			if remote && target != apps[i].vm {
				// Out through the vNIC, in through the remote one, and
				// back again with the reply.
				t.Compute(e13VNIC)
				reply := t.NewChan("r", 1)
				services[target].Send(t, core.Call{Reply: reply})
				reply.Recv(t)
				t.Compute(e13VNIC)
			} else {
				reply := t.NewChan("r", 1)
				services[apps[i].vm].Send(t, core.Call{Reply: reply})
				reply.Recv(t)
			}
		})
	return w.opsPerSec(ops, window)
}

func e13VMCluster(o Options) []*stats.Table {
	cores := 64
	window := sim.Time(4_000_000)
	if o.Quick {
		window = 1_500_000
	}
	tb := stats.NewTable(fmt.Sprintf("E13 / Figure 7: chanOS vs cluster-of-VMs at %d cores (ops/sec)", cores),
		"remote fraction", "chanOS", "VM cluster (4-core VMs)", "chanOS advantage")
	for _, f := range []float64{0, 0.1, 0.3, 0.5} {
		c := e13ChanOS(o, cores, f, window)
		v := e13Cluster(o, cores, 4, f, window)
		tb.AddRow(fmt.Sprintf("%.0f%%", f*100), stats.F(c), stats.F(v), stats.Ratio(c, v))
	}
	tb.Note("claim (§1, §6): 'give up and run a thousand VMs in one box; that seems undesirable' —")
	tb.Note("cross-VM sharing pays vNIC round trips that single-system messages avoid")
	return []*stats.Table{tb}
}
