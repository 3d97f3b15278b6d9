package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) {
	b, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		fatalf("%s: %v", path, err)
	}
}

// runCompare judges set b against set a, one row per (workload,
// end-to-end metric), with BENCHMARK.json's bounds. It exits non-zero
// when any row is worse.
func runCompare(aPath, bPath string) int {
	var spec benchSpec
	var a, b resultSet
	readJSON("BENCHMARK.json", &spec)
	readJSON(aPath, &a)
	readJSON(bPath, &b)
	counts := map[string]int{}
	for _, wl := range workloads {
		ea, eb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ea == nil || eb == nil {
			fmt.Printf("%-15s missing from a set\n", wl.name)
			counts["unresolved"]++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ea.Metrics[m.Name], eb.Metrics[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, change := verdict(sa, sb, m.Better == "higher", m.Bound)
			counts[v]++
			fmt.Printf("%-15s %-19s %12.6g -> %-12.6g %+8.2f%% worse (bound %4.1f%%)  %s\n",
				wl.name, m.Name, sa.Median, sb.Median, 100*change, 100*m.Bound, v)
		}
	}
	fmt.Printf("better %d, same %d, worse %d, unresolved %d\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

// verdict judges b against a for one metric and returns the change of
// the medians as a share of a's, signed so that positive is worse. A
// side whose own spread (max − min over median) is wider than the bound
// cannot resolve a change of that size: the row is unresolved, unless
// every run of b beats every run of a.
func verdict(a, b *series, higher bool, bound float64) (string, float64) {
	if a.Median == 0 {
		if b.Median == 0 {
			return "same", 0
		}
		return "unresolved", 0
	}
	change := (b.Median - a.Median) / a.Median
	if higher {
		change = -change
	}
	spread := max((a.Max-a.Min)/a.Median, (b.Max-b.Min)/b.Median)
	beats := b.Max < a.Min
	if higher {
		beats = b.Min > a.Max
	}
	switch {
	case spread > bound && beats:
		return "better", change
	case spread > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}
