package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/store"
	"chanos/internal/telemetry"
	"chanos/internal/trace"
)

// rep is one measured repetition of a workload: a fresh world, set up,
// driven to its operation count and checked.
type rep struct {
	setup        float64 // host s: world build + prefill up to the first request drawn
	wall         float64 // host s: the drive phase
	ops          uint64  // operations answered: the per-op denominator
	attempted    uint64
	failed       uint64
	mallocs      uint64   // host heap allocations during the drive
	heapBytes    uint64   // host bytes allocated during the drive
	fired        uint64   // engine events counted during the drive
	simCycles    sim.Time // simulated span of the drive
	lat          []uint64 // per-op simulated latency in cycles, completion order
	cyclesPerSec uint64
	problems     []string

	// Traced reps only.
	layers  map[string]float64
	spans   []trace.Event
	segSums []uint64 // per response: the sum of its stamped segments
}

func (r *rep) problem(s string) { r.problems = append(r.problems, s) }

// checkDrive records the drive-level correctness checks every
// request-serving workload shares.
func (r *rep) checkDrive(stalled bool, conservation []string) {
	if stalled {
		r.problem("fleet stalled: no response for the whole stall budget")
	}
	for _, c := range conservation {
		r.problem("conservation: " + c)
	}
	if r.failed > 0 {
		r.problem(fmt.Sprintf("%d of %d requests failed", r.failed, r.ops))
	}
}

// meter brackets a drive phase: host wall clock, host allocations, the
// engine's event count and clock, and — on traced reps — a CPU profile
// and the Go runtime's GC CPU accounting.
type meter struct {
	t0    time.Time
	ms    runtime.MemStats
	eng   *sim.Engine
	fired uint64
	now   sim.Time
	prof  *bytes.Buffer
	cpu   []metrics.Sample
}

func startMeter(eng *sim.Engine, traced bool) *meter {
	m := &meter{eng: eng, fired: eng.Fired(), now: eng.Now()}
	if traced {
		m.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			panic(err) // only one rep runs at a time, so a profile is never already active
		}
		m.cpu = readCPU()
	}
	runtime.ReadMemStats(&m.ms)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(r *rep) {
	r.wall = time.Since(m.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.ms.Mallocs
	r.heapBytes = ms.TotalAlloc - m.ms.TotalAlloc
	r.fired, r.simCycles = m.eng.Fired()-m.fired, m.eng.Now()-m.now
	if m.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	cpu := readCPU()
	r.layers["go.gc_cpu_share"] = ratio(cpu[0].Value.Float64()-m.cpu[0].Value.Float64(),
		cpu[1].Value.Float64()-m.cpu[1].Value.Float64())
	shares, err := cpuShares(m.prof.Bytes())
	if err != nil {
		r.problem("cpu profile: " + err.Error())
	}
	for _, l := range []string{"sim", "core", "net", "store", "cluster"} {
		r.layers[l+".cpu_share"] = shares[l]
	}
	r.layers["go.sched_cpu_share"] = shares["go.sched"]
}

func readCPU() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

// machineView is the part of one simulated machine the layer counters
// read.
type machineView struct {
	rt  *core.Runtime
	k   *kernel.Kernel
	nic *machine.NIC
	stk *net.Stack
	kv  *store.Store
}

// counters is every monotone layer counter, summed over machines.
type counters struct {
	now                       sim.Time
	rt                        core.Stats
	kernelBusy, userBusy      uint64
	kernelCores, userCores    int
	nic                       machine.NICQueueCounters
	stk                       net.StackCounters
	kv                        store.StoreCounters
	diskReads, diskWriteBytes uint64
	diskWrites                uint64
}

func readCounters(eng *sim.Engine, ms []machineView) counters {
	c := counters{now: eng.Now()}
	for _, m := range ms {
		rs := m.rt.Stats()
		telemetry.SumCounters(&c.rt, &rs)
		for i := 0; i < m.rt.NumCores(); i++ {
			if m.k.IsKernelCore(i) {
				c.kernelBusy += m.rt.M.Core(i).BusyCycles
				c.kernelCores++
			} else {
				c.userBusy += m.rt.M.Core(i).BusyCycles
				c.userCores++
			}
		}
		nc := m.nic.Counters()
		telemetry.SumCounters(&c.nic, &nc)
		sc := m.stk.Counters()
		telemetry.SumCounters(&c.stk, &sc)
		kc := m.kv.Counters()
		telemetry.SumCounters(&c.kv, &kc)
		for _, d := range m.kv.Disks() {
			c.diskReads += d.Reads
			c.diskWrites += d.Writes
			c.diskWriteBytes += d.Writes * uint64(d.P.BlockSize)
		}
	}
	return c
}

// layerCounters derives the counter-based layer metrics from the
// counters at the start (a) and end (b) of a drive of ops operations.
func layerCounters(l map[string]float64, a, b counters, ops uint64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	n := float64(ops)
	span := d(a.now, b.now)
	gets, puts := d(a.kv.Gets, b.kv.Gets), d(a.kv.Puts, b.kv.Puts)
	hits, misses := d(a.kv.CacheHits, b.kv.CacheHits), d(a.kv.CacheMisses, b.kv.CacheMisses)

	l["core.sends_per_op"] = ratio(d(a.rt.Sends, b.rt.Sends), n)
	l["core.switches_per_op"] = ratio(d(a.rt.Switches, b.rt.Switches), n)
	l["core.bytes_sent_per_op"] = ratio(d(a.rt.BytesSent, b.rt.BytesSent), n)
	l["machine.kernel_core_util"] = ratio(d(a.kernelBusy, b.kernelBusy), span*float64(b.kernelCores))
	l["machine.user_core_util"] = ratio(d(a.userBusy, b.userBusy), span*float64(b.userCores))
	l["machine.nic_rx_drops"] = d(a.nic.RxDrops, b.nic.RxDrops)
	l["net.retransmits_per_kop"] = ratio(1000*d(a.stk.Retransmits, b.stk.Retransmits), n)
	l["net.window_stalls"] = d(a.stk.WindowStalls, b.stk.WindowStalls)
	l["store.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["store.acks_per_flush"] = ratio(d(a.kv.AckedWrites, b.kv.AckedWrites), d(a.kv.FlushesDone, b.kv.FlushesDone))
	l["store.compactions"] = d(a.kv.CompactionsDone, b.kv.CompactionsDone)
	l["store.compacted_records_per_put"] = ratio(d(a.kv.CompactedRecords, b.kv.CompactedRecords), puts)
	l["store.log_full"] = d(a.kv.LogFull, b.kv.LogFull)
	l["blockdev.writes_per_put"] = ratio(d(a.diskWrites, b.diskWrites), puts)
	l["blockdev.bytes_per_put"] = ratio(d(a.diskWriteBytes, b.diskWriteBytes), puts)
	l["blockdev.reads_per_get"] = ratio(d(a.diskReads, b.diskReads), gets)
	l["repl.records_per_batch"] = ratio(d(a.kv.ReplRecords, b.kv.ReplRecords), d(a.kv.ReplBatches, b.kv.ReplBatches))
	l["repl.adverts_per_put"] = ratio(d(a.kv.ReplAdverts, b.kv.ReplAdverts), puts)
}

// storeSet presents several stores' shards as one telemetry source, so
// a one-off statd snapshot merges their histograms bucket-exactly.
type storeSet []*store.Store

func (s storeSet) Shards() int {
	n := 0
	for _, kv := range s {
		n += kv.Shards()
	}
	return n
}

func (s storeSet) CollectShard(i int, emit func(telemetry.Value)) {
	for _, kv := range s {
		if i < kv.Shards() {
			kv.CollectShard(i, emit)
			return
		}
		i -= kv.Shards()
	}
}

// flushLatency reads the group-commit flush histogram of the serving
// stores. The store keeps one histogram per shard for its whole life,
// so it covers prefill as well as the drive.
func flushLatency(r *rep, eng *sim.Engine, kvs ...*store.Store) {
	sd := telemetry.NewStatd(eng) // never started: SnapshotNow schedules nothing
	sd.Register("store", storeSet(kvs))
	us := float64(r.cyclesPerSec) / 1e6
	if h := sd.SnapshotNow().Service("store").TotalHist("FlushLatency"); h != nil {
		r.layers["store.flush_p50_us"] = float64(h.P50) / us
		r.layers["store.flush_p99_us"] = float64(h.P99) / us
	}
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the samples. A sample belongs to the innermost
// chanos/internal/<pkg> frame on its stack, so runtime work a layer
// causes (allocation, channel handoff) is charged to that layer. A
// sample with no chanos frame is Go runtime work: "go.gc" when the GC
// or sweeper is on the stack, else "go.sched". Samples in the
// benchmark's own code count toward the total only.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []struct {
			locs []uint64
			n    int64
		}
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var ids []uint64
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					ids = appendPacked(ids, v, data)
				case 2:
					vals = appendPacked(vals, v, data)
				}
				return nil
			})
			if len(vals) > 0 {
				samples = append(samples, struct {
					locs []uint64
					n    int64
				}{ids, int64(vals[0])})
			}
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		total += float64(s.n)
		layer, gc, bench := "", false, false
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				f := name(fn)
				if rest, ok := strings.CutPrefix(f, "chanos/internal/"); ok {
					layer = rest[:strings.IndexAny(rest+".", "./")]
					break stack
				}
				gc = gc || strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
					strings.HasPrefix(f, "runtime.bgscavenge")
				bench = bench || strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "chanos.")
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "go.gc"
		case bench:
			continue
		default:
			layer = "go.sched"
		}
		shares[layer] += float64(s.n)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint/fixed value or its length-delimited
// bytes (data is nil for non-length-delimited fields).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one value or packed.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
