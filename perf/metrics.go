package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric. The lists below are the
// benchmark's vocabulary: BENCHMARK.json names the same metrics with the
// same units (perf_test.go checks that), and nothing else is emitted.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. sim_* are simulated (exact for a seed); host_* and setup_s are
// what the simulation costs on the host; max_rss_mb is the process peak.
var endToEnd = []metricDef{
	{"sim_ops_per_sec", "ops/s"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
	{"sim_p999_us", "us"},
	{"host_allocs_per_op", "allocs/op"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer comes from the traced run. Every workload reports every
// name; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.events_per_op", "events/op"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.cpu_share", "share"},
	{"core.sends_per_op", "msgs/op"},
	{"core.switches_per_op", "count/op"},
	{"core.bytes_sent_per_op", "B/op"},
	{"core.cpu_share", "share"},
	{"machine.kernel_core_util", "share"},
	{"machine.user_core_util", "share"},
	{"machine.nic_rx_drops", "count"},
	{"net.inbound_p50_us", "us"},
	{"net.inbound_p99_us", "us"},
	{"net.outbound_p50_us", "us"},
	{"net.outbound_p99_us", "us"},
	{"net.retransmits_per_kop", "count/kop"},
	{"net.window_stalls", "count"},
	{"net.cpu_share", "share"},
	{"store.get_p50_us", "us"},
	{"store.get_p99_us", "us"},
	{"store.put_p50_us", "us"},
	{"store.put_p99_us", "us"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.flush_p50_us", "us"},
	{"store.flush_p99_us", "us"},
	{"store.acks_per_flush", "acks/flush"},
	{"store.compactions", "count"},
	{"store.compacted_records_per_put", "records/put"},
	{"store.log_full", "count"},
	{"store.cpu_share", "share"},
	{"blockdev.writes_per_put", "writes/put"},
	{"blockdev.bytes_per_put", "B/put"},
	{"blockdev.reads_per_get", "reads/get"},
	{"repl.records_per_batch", "records/batch"},
	{"repl.adverts_per_put", "adverts/put"},
	{"repl.max_lag", "seq"},
	{"cluster.get_p99_us", "us"},
	{"cluster.put_p99_us", "us"},
	{"cluster.redirects_per_kop", "count/kop"},
	{"cluster.retries_per_kop", "count/kop"},
	{"cluster.cpu_share", "share"},
	{"go.gc_cpu_share", "share"},
	{"go.sched_cpu_share", "share"},
	{"go.heap_bytes_per_op", "B/op"},
	{"tail.net_share", "share"},
	{"tail.store_share", "share"},
	{"trace.fired_delta", "count"},
	{"trace.host_overhead_pct", "%"},
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pct returns the p-th percentile (0-100) of ascending samples by
// nearest rank, so every reported percentile is a latency some request
// actually saw.
func pct(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []uint64) []uint64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median of a non-empty sample (mean of the middle two when even).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
