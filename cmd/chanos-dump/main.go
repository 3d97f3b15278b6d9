// Command chanos-dump inspects machine core dumps written by the
// internal/dump subsystem.
//
// Usage:
//
//	chanos-dump <dump.json>              render a human summary
//	chanos-dump -validate <dump.json>    structural validation (exit 1 on problems)
//	chanos-dump -diff <a.json> <b.json>  structural diff (exit 1 when they differ)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chanos/internal/dump"
	"chanos/internal/store"
)

func main() {
	var (
		validate = flag.Bool("validate", false, "structurally validate the dump")
		diff     = flag.Bool("diff", false, "structurally diff two dumps")
	)
	flag.Parse()

	switch {
	case *diff:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "chanos-dump: -diff needs exactly two dump files")
			os.Exit(2)
		}
		os.Exit(diffDumps(flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: chanos-dump [-validate | -diff] <dump.json> [dump.json]")
		os.Exit(2)
	case *validate:
		os.Exit(validateDump(flag.Arg(0)))
	default:
		os.Exit(inspect(os.Stdout, flag.Arg(0), load(flag.Arg(0))))
	}
}

func load(path string) *dump.Dump {
	d, err := dump.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chanos-dump: %v\n", err)
		os.Exit(1)
	}
	return d
}

func validateDump(path string) int {
	d := load(path)
	if bad := d.Validate(); len(bad) > 0 {
		fmt.Printf("%s: INVALID\n", path)
		for _, b := range bad {
			fmt.Printf("  %s\n", b)
		}
		return 1
	}
	fmt.Printf("%s: valid (schema v%d, scenario %s, seed %d, event %d)\n",
		path, d.Version, d.Config.Scenario, d.Seed, d.EventCount)
	return 0
}

func diffDumps(pa, pb string) int {
	a, b := load(pa), load(pb)
	diffs := dump.Diff(a, b)
	if len(diffs) == 0 {
		fmt.Println("dumps are identical")
		return 0
	}
	for _, l := range diffs {
		fmt.Println(l)
	}
	return 1
}

var lifecycleNames = []string{"solo", "failed-over", "syncing", "quorum", "failed"}

// inspect renders d's human summary to out: the reproduction triple,
// then one block per captured machine. It returns 1 when the dump
// fails structural validation.
func inspect(out io.Writer, path string, d *dump.Dump) int {
	fmt.Fprintf(out, "machine core dump %s (schema v%d)\n", path, d.Version)
	fmt.Fprintf(out, "  reason      %s\n", d.Reason)
	fmt.Fprintf(out, "  repro       scenario=%s seed=%d event=%d (cycle %d)\n",
		d.Config.Scenario, d.Seed, d.EventCount, d.AtCycles)
	fmt.Fprintf(out, "  replay      %s\n", dump.ReplayCommand(path))
	fmt.Fprintf(out, "  config      %d machines, %d cores, %d clients, %d requests, %d keys, %d%% reads, logblocks=%d, replicas=%d, rf=%d\n",
		len(d.Machines), d.Config.Cores, d.Config.Clients, d.Config.Requests, d.Config.Keys,
		d.Config.ReadPct, d.Config.LogBlocks, d.Config.Replicas, d.Config.RF)
	if d.Config.FailWrites > 0 {
		fmt.Fprintf(out, "  fault       %d injected write failures on shard %d\n",
			d.Config.FailWrites, d.Config.FailShard)
	}
	if d.Config.Chaos != "" {
		fmt.Fprintf(out, "  chaos       %s\n", d.Config.Chaos)
	}

	for _, m := range d.Machines {
		fmt.Fprintf(out, "  node %d      map v%d, %d replica machines\n", m.Node, m.MapVersion, len(m.Replicas))
		running, ready, blocked := 0, 0, 0
		for _, t := range m.Threads {
			switch t.State {
			case "running":
				running++
			case "ready":
				ready++
			default:
				blocked++
			}
		}
		fmt.Fprintf(out, "    sched     %d cores, %d threads (%d running, %d ready, %d blocked)\n",
			len(m.Cores), len(m.Threads), running, ready, blocked)
		var rxQ int
		for _, q := range m.NIC {
			rxQ += q.RxOccupancy
		}
		fmt.Fprintf(out, "    nic       %d queues, %d rx frames queued\n", len(m.NIC), rxQ)
		conns := 0
		for _, sh := range m.Net {
			conns += len(sh.Conns)
		}
		fmt.Fprintf(out, "    net       %d shards, %d live connections\n", len(m.Net), conns)
		printShards(out, "store", m.Store)
		for j, rs := range m.Replicas {
			printShards(out, fmt.Sprintf("replica%d", j), rs)
		}
		if m.Telemetry != nil {
			fmt.Fprintf(out, "    telemetry %d services at cycle %d\n", len(m.Telemetry.Services), m.Telemetry.AtCycles)
		}
	}
	if bad := d.Validate(); len(bad) > 0 {
		fmt.Fprintf(out, "  WARNING: dump fails structural validation (%d problems; run -validate)\n", len(bad))
		return 1
	}
	return 0
}

// printShards renders one store's shard lines under a section name.
func printShards(out io.Writer, name string, shards []store.ShardSnapshot) {
	for _, sh := range shards {
		state := "?"
		if int(sh.Lifecycle) < len(lifecycleNames) {
			state = lifecycleNames[sh.Lifecycle]
		}
		failed := ""
		if sh.Failed != "" {
			failed = "  FAILED: " + sh.Failed
		}
		fmt.Fprintf(out, "    %-9s #%d  %-11s %5d keys, %6d live bytes, %3d cached blocks, %4d disk writes, flight %d/%d%s\n",
			name, sh.Shard, state, len(sh.Index), sh.LiveBytes, len(sh.CacheBlocks), sh.Disk.Writes,
			len(sh.Flight), sh.FlightRecorded, failed)
	}
}
