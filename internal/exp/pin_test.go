package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chanos/internal/stats"
)

// The committed BENCH_<id>.json files pin every simulated number of the
// quick seed-42 runs, one file per experiment. TestAllExperimentsProduceTables
// compares each fresh run with its committed file (diffBench) and runs
// the experiment's gate over the same tables (gates).

// artifact is a BENCH_<id>.json file as read back: the telemetry stays
// raw, so it compares without a round trip through its Go types.
type artifact struct {
	ID        string          `json:"id"`
	Title     string          `json:"title"`
	Seed      uint64          `json:"seed"`
	Quick     bool            `json:"quick"`
	Tables    []*stats.Table  `json:"tables"`
	Telemetry json.RawMessage `json:"telemetry"`
}

func parseArtifact(b []byte) (*artifact, error) {
	var a artifact
	err := json.Unmarshal(b, &a)
	return &a, err
}

// readArtifact reads the committed BENCH_<id>.json at the repo root; ok
// is false when there is none.
func readArtifact(t testing.TB, id string) (raw []byte, ok bool) {
	raw, err := os.ReadFile(filepath.Join("..", "..", fmt.Sprintf("BENCH_%s.json", id)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return raw, true
}

// committedTables parses the committed BENCH_<id>.json's tables.
func committedTables(t testing.TB, id string) []*stats.Table {
	raw, ok := readArtifact(t, id)
	if !ok {
		t.Fatalf("BENCH_%s.json is not committed", id)
	}
	a, err := parseArtifact(raw)
	if err != nil {
		t.Fatalf("BENCH_%s.json: %v", id, err)
	}
	return a.Tables
}

// diffBench returns "" when got and want are byte-identical artifacts,
// else the first difference: a header field, a table, or a (table, row,
// column) cell, with rows named by their first cell and 1-based index;
// failing those, "telemetry snapshot differs".
func diffBench(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, err := parseArtifact(got)
	if err != nil {
		return fmt.Sprintf("fresh run does not parse: %v", err)
	}
	w, err := parseArtifact(want)
	if err != nil {
		return fmt.Sprintf("committed file does not parse: %v", err)
	}
	for _, f := range []struct{ name, got, want string }{
		{"id", g.ID, w.ID},
		{"title", g.Title, w.Title},
		{"seed", fmt.Sprint(g.Seed), fmt.Sprint(w.Seed)},
		{"quick", fmt.Sprint(g.Quick), fmt.Sprint(w.Quick)},
	} {
		if f.got != f.want {
			return fmt.Sprintf("field %q: got %q, committed %q", f.name, f.got, f.want)
		}
	}
	for i := 0; i < len(g.Tables) || i < len(w.Tables); i++ {
		switch {
		case i >= len(w.Tables):
			return fmt.Sprintf("table %q: missing from committed file", g.Tables[i].Title)
		case i >= len(g.Tables):
			return fmt.Sprintf("committed table %q: not produced", w.Tables[i].Title)
		case g.Tables[i].Title != w.Tables[i].Title:
			return fmt.Sprintf("table #%d: got %q, committed %q", i+1, g.Tables[i].Title, w.Tables[i].Title)
		}
		if d := diffTable(g.Tables[i], w.Tables[i]); d != "" {
			return fmt.Sprintf("table %q, %s", g.Tables[i].Title, d)
		}
	}
	// Compacted, so only a changed value differs; an absent snapshot
	// fails to compact to the same empty buffer on both sides.
	var gt, wt bytes.Buffer
	_ = json.Compact(&gt, g.Telemetry)
	_ = json.Compact(&wt, w.Telemetry)
	if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
		return "telemetry snapshot differs"
	}
	return "bytes differ outside tables and telemetry"
}

// diffTable names the first difference between two same-titled tables.
func diffTable(g, w *stats.Table) string {
	if d := diffRow(g.Cols, w.Cols, func(c int) string { return fmt.Sprintf("column #%d", c+1) }); d != "" {
		return "header, " + d
	}
	name := func(rows [][]string, i int) string {
		first := ""
		if len(rows[i]) > 0 {
			first = rows[i][0]
		}
		return fmt.Sprintf("row %q (#%d)", first, i+1)
	}
	for i := 0; i < len(g.Rows) || i < len(w.Rows); i++ {
		switch {
		case i >= len(w.Rows):
			return name(g.Rows, i) + ": missing from committed file"
		case i >= len(g.Rows):
			return "committed " + name(w.Rows, i) + ": not produced"
		}
		d := diffRow(g.Rows[i], w.Rows[i], func(c int) string { return fmt.Sprintf("column %q", cell(g.Cols, c)) })
		if d == "" {
			continue
		}
		// A dropped or added row shifts every row after it: name the row
		// itself rather than its first shifted cell.
		if len(g.Rows) > len(w.Rows) {
			return name(g.Rows, i) + ": missing from committed file"
		}
		if len(g.Rows) < len(w.Rows) {
			return "committed " + name(w.Rows, i) + ": not produced"
		}
		return name(g.Rows, i) + ", " + d
	}
	if d := diffRow(g.Notes, w.Notes, func(n int) string { return fmt.Sprintf("note #%d", n+1) }); d != "" {
		return d
	}
	return ""
}

// diffRow names the first differing cell of two rows via label.
func diffRow(g, w []string, label func(int) string) string {
	for c := 0; c < len(g) || c < len(w); c++ {
		if c >= len(g) || c >= len(w) || g[c] != w[c] {
			return fmt.Sprintf("%s: got %q, committed %q", label(c), cell(g, c), cell(w, c))
		}
	}
	return ""
}

func cell(row []string, c int) string {
	if c < len(row) {
		return row[c]
	}
	return "<none>"
}

// table returns the first of tables whose title starts with prefix,
// failing t if there is none.
func table(t testing.TB, tables []*stats.Table, prefix string) *stats.Table {
	t.Helper()
	for _, tb := range tables {
		if strings.HasPrefix(tb.Title, prefix) {
			return tb
		}
	}
	t.Fatalf("no table titled %q...", prefix)
	return nil
}

// col returns the index of tb's column called name, failing t if tb has
// no such column: a renamed or reordered column fails loudly instead of
// checking the wrong cell.
func col(t testing.TB, tb *stats.Table, name string) int {
	t.Helper()
	for c, n := range tb.Cols {
		if n == name {
			return c
		}
	}
	t.Fatalf("table %q has no column %q (columns %q)", tb.Title, name, tb.Cols)
	return -1
}

// num parses a cell's leading number as the stats formatters write it
// ("26.49M", "1.26x", "6.6%", "0.0002 s", "9.0 (cap)"), failing t on
// anything else: a gate never compares a cell it could not read.
func num(t testing.TB, s string) float64 {
	t.Helper()
	if f := strings.Fields(s); len(f) > 0 {
		v, scale := strings.TrimRight(f[0], "x%"), 1.0
		if m, ok := map[string]float64{"k": 1e3, "M": 1e6, "G": 1e9}[v[max(len(v)-1, 0):]]; ok {
			v, scale = v[:len(v)-1], m
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			return x * scale
		}
	}
	t.Fatalf("cell %q is not a number", s)
	return 0
}

// row is one table row read by column name (col): a renamed column
// fails loudly instead of reading the wrong cell.
type row struct {
	t     testing.TB
	tb    *stats.Table
	cells []string
}

func (r row) s(name string) string  { r.t.Helper(); return cell(r.cells, col(r.t, r.tb, name)) }
func (r row) n(name string) float64 { r.t.Helper(); return num(r.t, r.s(name)) }

// rows returns the rows of the first of tables titled prefix (table),
// failing t if it has none.
func rows(t testing.TB, tables []*stats.Table, prefix string) []row {
	t.Helper()
	tb := table(t, tables, prefix)
	if len(tb.Rows) == 0 {
		t.Fatalf("table %q has no rows", tb.Title)
	}
	out := make([]row, len(tb.Rows))
	for i, cells := range tb.Rows {
		out[i] = row{t, tb, cells}
	}
	return out
}

// at returns the row of rs whose first cell is label, failing t if there
// is none.
func at(rs []row, label string) row {
	for _, r := range rs {
		if r.cells[0] == label {
			return r
		}
	}
	rs[0].t.Fatalf("table %q has no row %q", rs[0].tb.Title, label)
	return row{}
}

// claims collects the failed predicates of one gate.
type claims []error

// check records the claim format when ok is false.
func (c *claims) check(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Errorf(format, args...))
	}
}

func (c claims) err() error { return errors.Join(c...) }

// gates holds one predicate per experiment over the named columns of its
// quick tables: the paper claim the experiment stands for. Each runs
// over a fresh run in TestAllExperimentsProduceTables and over the
// committed tables in TestGatesCatchMutatedTables; ARCHITECTURE.md maps
// every claim to its gate.
var gates = map[string]func(testing.TB, []*stats.Table) error{
	"A1": gateA1, "A3": gateA3, "A4": gateA4,
	"E1": gateE1, "E2": gateE2, "E3": gateE3, "E4": gateE4, "E5": gateE5,
	"E6": gateE6, "E7": gateE7, "E8": gateE8, "E9": gateE9, "E10": gateE10,
	"E11": gateE11, "E12": gateE12, "E13": gateE13, "E14": gateE14, "E15": gateE15,
	"E16": gateE16, "E17": gateE17, "E18": gateE18, "E19": gateE19,
}

// gateA1: the message kernel at 256 cores stays at or above the
// fine-grained kernel at every MsgBase scale, 4x included (§4).
func gateA1(t testing.TB, tables []*stats.Table) error {
	var c claims
	for _, r := range rows(t, tables, "A1:") {
		c.check(r.n("ops/sec") >= r.n("finegrained"), "A1 row %q: message below fine-grained", r.cells)
	}
	return c.err()
}

// gateA3: the 0.250 kernel-core fraction beats both ends of the sweep:
// too few kernel cores starve services, too many starve applications.
func gateA3(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "A3:")
	for _, end := range []string{"0.125", "0.500"} {
		c.check(at(rs, "0.250").n("ops/sec") > at(rs, end).n("ops/sec"), "A3: fraction 0.250 does not beat %s", end)
	}
	return c.err()
}

// gateA4: message syscalls beat the trap at every pollution cost.
func gateA4(t testing.TB, tables []*stats.Table) error {
	var c claims
	c.all(rows(t, tables, "A4:"), "msg wins?", "yes")
	return c.err()
}

// gateE1: the big lock stops scaling (64 cores give under 4x the
// throughput of 4); the message kernel scales (over 6x); the two
// fine-grained designs are comparable (within 2x) at 64 cores; and at
// 256 fine-grained beats the big lock and messages beat fine-grained:
// the paper's crossover in the hundreds of cores (§1).
func gateE1(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E1 /")
	r4, r64, r256 := at(rs, "4"), at(rs, "64"), at(rs, "256")
	c.check(r64.n("biglock") <= 4*r4.n("biglock"), "E1: big lock scaled over 4x from 4 to 64 cores")
	c.check(r64.n("message") >= 6*r4.n("message"), "E1: message kernel scaled under 6x from 4 to 64 cores")
	c.check(r64.n("message") <= 2*r64.n("finegrained") && r64.n("finegrained") <= 2*r64.n("message"),
		"E1: message and fine-grained are not within 2x at 64 cores")
	c.check(r256.n("finegrained") > r256.n("biglock"), "E1: fine-grained does not beat the big lock at 256 cores")
	c.check(r256.n("message") > r256.n("finegrained"), "E1: message does not beat fine-grained at 256 cores")
	return c.err()
}

// gateE2: a message syscall has lower latency and higher throughput than
// a trap, and async batching beats sync messages on throughput.
func gateE2(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E2 /")
	trap, sync, async := at(rs, "trap (sync)"), at(rs, "message (sync)"), at(rs, "message (async x8)")
	c.check(sync.n("latency (cycles/op)") < trap.n("latency (cycles/op)"), "E2: message latency not below the trap's")
	c.check(sync.n("ops/sec") > trap.n("ops/sec"), "E2: message throughput not above the trap's")
	c.check(async.n("ops/sec") > sync.n("ops/sec"), "E2: async batching does not beat sync")
	return c.err()
}

// gateE3: a cross-core buffered send is within 5x of a procedure call,
// and a Mach message, an L4 call and a trap pair each cost at least 10x
// that send (§1, §2). The same-core row is mostly context switches (see
// its note), so the claim is held to the cross-core one.
func gateE3(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E3 /")
	send := at(rs, "send (buffered, cross core)").n("cycles")
	c.check(send <= 5*at(rs, "procedure call").n("cycles"), "E3: cross-core send over 5x a procedure call")
	for _, heavy := range []string{"Mach-port message (middleweight)", "L4 sync IPC (call+reply)", "trap pair (mode switch + pollution)"} {
		c.check(at(rs, heavy).n("cycles") >= 10*send, "E3: %s under 10x the cross-core send", heavy)
	}
	return c.err()
}

// gateE4: signal delivery wastes work at every rate and wastes more at
// the highest rate than at the lowest; channel delivery wastes none.
func gateE4(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E4 /")
	for _, r := range rs {
		c.check(r.n("signal wasted %") > 0 && r.n("channel wasted %") == 0, "E4 row %q: signals waste nothing or channels waste work", r.cells)
	}
	c.check(rs[len(rs)-1].n("signal wasted %") > rs[0].n("signal wasted %"), "E4: signal waste does not grow with the rate")
	return c.err()
}

// gateE5: the vnode-thread FS at least matches the sharded-lock FS at
// the largest core count, and is the best design in the hot directory.
func gateE5(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E5 /")
	last := rs[len(rs)-1]
	c.check(last.n("message (vnode threads)") >= last.n("shardlock"), "E5 row %q: message below shardlock", last.cells)
	hot := rows(t, tables, "E5b:")
	for _, other := range []string{"biglock", "shardlock"} {
		c.check(at(hot, "message").n("ops/sec") > at(hot, other).n("ops/sec"), "E5b: message does not beat %s", other)
	}
	return c.err()
}

// gateE6: a thread per page spawns over 10x the threads of a thread per
// region, and the library OS spawns none.
func gateE6(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E6 /")
	c.check(at(rs, "per-page").n("service threads") > 10*at(rs, "per-region").n("service threads"),
		"E6: per-page spawns at most 10x per-region's threads")
	c.check(at(rs, "libos").s("service threads") == "0", "E6: libos spawns service threads")
	return c.err()
}

// gateE7: supervised restarts cost measurable downtime yet stay within
// the AXD301's 32 ms a year at 120 faults/year, and supervision beats
// the monolithic reboot on nines at every fault rate.
func gateE7(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E7 /")
	c.check(at(rs, "120").n("supervised downtime") <= 0.032, "E7: supervised downtime over 32 ms at 120 faults/year")
	c.check(rs[len(rs)-1].n("supervised downtime") > 0, "E7: no supervised restart downtime measured")
	for _, r := range rs {
		c.check(r.n("supervised nines") > r.n("monolithic nines"), "E7 row %q: supervision does not win on nines", r.cells)
	}
	return c.err()
}

// gateE8: the single-thread driver corrupts nothing and meets no
// register hazard; the lockless driver corrupts requests.
func gateE8(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E8 /")
	single := at(rs, "single-thread")
	c.check(single.s("corrupted requests") == "0" && single.s("register hazards") == "0",
		"E8 row %q: the single-thread driver corrupted requests or met hazards", single.cells)
	c.check(at(rs, "lockless-4").n("corrupted requests") > 0, "E8: the lockless driver corrupted nothing")
	return c.err()
}

// gateE9: no placement policy wins both workloads: random placement
// loses the pipeline to round-robin, and work stealing beats round-robin
// on the irregular fan-out.
func gateE9(t testing.TB, tables []*stats.Table) error {
	var c claims
	pipe, fan := rows(t, tables, "E9 /"), rows(t, tables, "E9b:")
	c.check(at(pipe, "random").n("16 cores") < at(pipe, "round-robin").n("16 cores"), "E9: random does not lose the pipeline to round-robin")
	c.check(at(fan, "work-stealing").n("16 cores") > at(fan, "round-robin").n("16 cores"), "E9b: work-stealing does not beat round-robin")
	return c.err()
}

// gateE10: the checker flags both seeded bug.* protocols and passes the
// seven clean ones.
func gateE10(t testing.TB, tables []*stats.Table) error {
	var c claims
	verdicts := map[string]int{}
	for _, r := range rows(t, tables, "E10 /") {
		want := "ok"
		if strings.HasPrefix(r.s("protocol"), "bug.") {
			want = "BUG"
		}
		verdicts[want]++
		c.check(r.s("verdict") == want, "E10 row %q: verdict should be %s", r.cells, want)
	}
	c.check(verdicts["BUG"] == 2 && verdicts["ok"] == 7, "E10: corpus is %v, want 2 bugs and 7 clean", verdicts)
	return c.err()
}

// gateE11: polling burns wasted polls at the widest choice.
func gateE11(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E11 /")
	c.check(rs[len(rs)-1].n("poll wasted polls/op") > 0, "E11: polling wasted no polls at the widest k")
	return c.err()
}

// gateE12: strict copy's tax grows from the smallest payload to the
// largest, and every strict run copied bytes.
func gateE12(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E12 /")
	c.check(rs[len(rs)-1].n("copy tax") > rs[0].n("copy tax"), "E12: the copy tax does not grow with payload size")
	for _, r := range rs {
		c.check(r.n("bytes copied") > 0, "E12 row %q: strict copy copied nothing", r.cells)
	}
	return c.err()
}

// gateE13: with 30% remote data chanOS beats the VM cluster, and with
// none the fully partitioned cluster stays within 3x of chanOS.
func gateE13(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E13 /")
	const vm = "VM cluster (4-core VMs)"
	c.check(at(rs, "30%").n("chanOS") > at(rs, "30%").n(vm), "E13: chanOS does not beat the VM cluster at 30%% remote")
	c.check(3*at(rs, "0%").n(vm) >= at(rs, "0%").n("chanOS"), "E13: the partitioned VM cluster is not within 3x of chanOS")
	return c.err()
}

// all records that column name reads want on every row of rs.
func (c *claims) all(rs []row, name, want string) {
	for _, r := range rs {
		c.check(r.s(name) == want, "%s row %q: %s is not %s", r.tb.Title, r.cells, name, want)
	}
}

// rises records, for each step of rs, that column name rises with it.
func (c *claims) rises(rs []row, name string) {
	for i := 1; i < len(rs); i++ {
		c.check(rs[i].n(name) > rs[i-1].n(name), "%s: %s does not rise from row %q to %q", rs[0].tb.Title, name, rs[i-1].cells, rs[i].cells)
	}
}

// gateE14: connections/sec rise with every cores step and p99 falls from
// the fewest cores to the most; 2 shards serve at least 1 shard's
// requests (E14b).
func gateE14(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E14 /")
	c.rises(rs, "conns/sec")
	c.check(rs[len(rs)-1].n("p99 latency (us)") < rs[0].n("p99 latency (us)"), "E14: p99 does not fall with cores")
	sb := rows(t, tables, "E14b:")
	c.check(at(sb, "2").n("req/sec") >= at(sb, "1").n("req/sec"), "E14b: 2 shards serve fewer requests than 1")
	return c.err()
}

// gateE15: store ops/sec rise with every cores step and p99 falls from
// the fewest cores to the most, with writes reaching the log, reads
// hitting the cache and the final snapshot balancing its conservation
// laws on every row; 2 store shards serve at least 1 (E15b); and the
// churn workload (E15d) writes far past the log capacity with not one
// write refused while compaction runs.
func gateE15(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E15 /")
	c.rises(rs, "ops/sec")
	c.check(rs[len(rs)-1].n("p99 latency (us)") < rs[0].n("p99 latency (us)"), "E15: p99 does not fall with cores")
	for _, r := range rs {
		c.check(r.n("log flushes") > 0 && r.n("cache hit rate") > 0 && r.s("conservation") == "ok",
			"E15 row %q: no flushes, no cache hits or conservation violated", r.cells)
	}
	sb := rows(t, tables, "E15b:")
	c.check(at(sb, "2").n("ops/sec") >= at(sb, "1").n("ops/sec"), "E15b: 2 store shards serve fewer ops than 1")
	churn := rows(t, tables, "E15d /")
	c.all(churn, "refused", "0")
	c.check(churn[len(churn)-1].n("compactions") > 0, "E15d: the churn workload never compacted")
	return c.err()
}

// gateE16: at every core count quorum mode ships replication batches and
// records, acks writes, and pays a higher p99 than local mode, which
// ships nothing; every seeded primary kill (E16b) tracked acked PUTs,
// lost none of them and replayed the replica's log.
func gateE16(t testing.TB, tables []*stats.Table) error {
	var c claims
	localP99 := map[string]float64{}
	for _, r := range rows(t, tables, "E16 /") {
		if r.s("mode") == "local" {
			c.check(r.s("repl batches") == "0", "E16 row %q: local mode shipped batches", r.cells)
			localP99[r.s("cores")] = r.n("p99 latency (us)")
			continue
		}
		local, ok := localP99[r.s("cores")]
		c.check(r.n("repl batches") > 0 && r.n("repl records") > 0 && r.n("acked writes") > 0 && ok && r.n("p99 latency (us)") > local,
			"E16 row %q: quorum shipped nothing, acked nothing or cost no p99 over local", r.cells)
	}
	for _, r := range rows(t, tables, "E16b /") {
		c.check(r.n("acked puts") > 0 && r.n("tracked keys") > 0 && r.s("lost") == "0" && r.n("replica replayed") > 0,
			"E16b row %q: tracked no acked PUTs, lost some or replayed nothing", r.cells)
	}
	return c.err()
}

// gateE17: three heal cycles each end at quorum having tracked acked
// PUTs and lost none, and at least two re-attach at runtime, each
// streaming a bootstrap image and healing shards; every cycle took a
// live STATS scrape whose conservation laws hold (E17c); and replica
// reads lift GETs/sec to at least 1.5x primary-only (E17b).
func gateE17(t testing.TB, tables []*stats.Table) error {
	var c claims
	cycles := rows(t, tables, "E17 /")
	c.check(len(cycles) == 3, "E17: %d heal cycles, want 3", len(cycles))
	runtimeAttaches := 0
	for _, r := range cycles {
		c.check(r.s("quorum") == "yes" && r.s("lost") == "0" && r.n("acked puts") > 0 && r.n("tracked keys") > 0,
			"E17 row %q: not at quorum, lost writes or tracked none", r.cells)
		if r.s("attach") == "runtime" {
			runtimeAttaches++
			c.check(r.n("sync records") > 0 && r.n("shard heals") > 0, "E17 row %q: runtime re-attach synced or healed nothing", r.cells)
		}
	}
	c.check(runtimeAttaches >= 2, "E17: %d runtime re-attach cycles, want >= 2", runtimeAttaches)
	scrapes := rows(t, tables, "E17c /")
	c.check(len(scrapes) >= 3, "E17c: %d scrape rows, want >= 3", len(scrapes))
	c.all(scrapes, "scraped", "yes")
	c.all(scrapes, "conservation violations", "0")
	reads := rows(t, tables, "E17b /")
	base, repl := at(reads, "primary-only").n("GETs/sec"), at(reads, "replica-reads").n("GETs/sec")
	c.check(base > 0 && repl >= 1.5*base, "E17b: replica reads lift GETs/sec %.0f -> %.0f, want >= 1.5x", base, repl)
	return c.err()
}

// auditClean records that no row of rs lost a request, errored or
// missed an acked write in the audit.
func (c *claims) auditClean(rs []row) {
	c.all(rs, "lost", "0")
	c.all(rs, "errs", "0")
	c.all(rs, "audit lost", "0")
}

// gateE18: no request is lost or errors and the acked-write audit is
// clean in all three phases; the minority replica kill is tolerated and
// the migration advances the shard map.
func gateE18(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E18 /")
	c.check(len(rs) == 3, "E18: %d phases, want 3", len(rs))
	c.auditClean(rs)
	c.check(at(rs, "minority-kill").n("tolerated") > 0, "E18: the minority kill was never tolerated")
	c.check(at(rs, "migration").n("map ver") > 1, "E18: the migration did not advance the map version")
	return c.err()
}

// gateE18c: the fabric-scaling table (full mode only) keeps E18's audit
// contract at 3, 5 and 7 serving nodes: nothing lost or errored, and a
// non-empty acked-write audit that finds nothing missing.
func gateE18c(t testing.TB, tables []*stats.Table) error {
	var c claims
	rs := rows(t, tables, "E18c /")
	c.check(len(rs) == 3, "E18c: %d rows, want 3", len(rs))
	c.auditClean(rs)
	for _, n := range []string{"3", "5", "7"} {
		c.check(at(rs, n).n("audit keys") > 0, "E18c: %s nodes audited no acked keys", n)
	}
	return c.err()
}

// gateE19: every chaos family, and the total, ends with no red seed.
func gateE19(t testing.TB, tables []*stats.Table) error {
	var c claims
	c.all(rows(t, tables, "E19 /"), "red", "0")
	return c.err()
}

// TestBenchDiffNamesTheEditedCell: each kind of hand edit to a committed
// artifact — two columns swapped, one cell changed, one row dropped — is
// reported at its exact (table, row, column).
func TestBenchDiffNamesTheEditedCell(t *testing.T) {
	raw, ok := readArtifact(t, "E15")
	if !ok {
		t.Fatal("BENCH_E15.json is not committed")
	}
	if d := diffBench(raw, raw); d != "" {
		t.Fatalf("a file differs from itself: %s", d)
	}
	const (
		cores = "E15 / store scaling: cores sweep (store shards = cores, 70% reads, fixed client fleet)"
		mix   = "E15b: store shard sweep at 64 cores (50/50 mix; independent keys should not serialise)"
		churn = "E15d / sustained churn: writes far past the log-region capacity (16 writers, 2 shards, 256 KB regions)"
	)
	for _, tc := range []struct {
		name string
		edit func(tables []*stats.Table)
		want string
	}{
		{"swap two columns", func(tables []*stats.Table) {
			tb := tables[0]
			tb.Cols[2], tb.Cols[3] = tb.Cols[3], tb.Cols[2]
			for _, r := range tb.Rows {
				r[2], r[3] = r[3], r[2]
			}
		}, fmt.Sprintf(`table %q, header, column #3: got "ops/sec", committed "p99 latency (us)"`, cores)},
		{"change one cell", func(tables []*stats.Table) {
			tables[3].Rows[1][2] = "1"
		}, fmt.Sprintf(`table %q, row "8.0" (#2), column "refused": got "0", committed "1"`, churn)},
		{"drop one row", func(tables []*stats.Table) {
			tb := tables[1]
			tb.Rows = append(tb.Rows[:2], tb.Rows[3:]...)
		}, fmt.Sprintf(`table %q, row "4" (#3): missing from committed file`, mix)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := parseArtifact(raw)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(a.Tables)
			edited, err := json.MarshalIndent(a, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got := diffBench(raw, edited); got != tc.want {
				t.Fatalf("diff reports\n  %s\nwant\n  %s", got, tc.want)
			}
		})
	}
	a, _ := parseArtifact(raw)
	a.Telemetry = json.RawMessage(`{}`)
	edited, _ := json.MarshalIndent(a, "", "  ")
	if got := diffBench(raw, edited); got != "telemetry snapshot differs" {
		t.Fatalf("an edited snapshot is reported as %q", got)
	}
}

// TestGatesCatchMutatedTables: every experiment has a committed pin and
// a gate, every gate passes its committed tables, and every gate fails
// at least one single-cell edit that breaks its claim. This is the
// -short tier's check of every claim.
func TestGatesCatchMutatedTables(t *testing.T) {
	for _, e := range All() {
		if gate := gates[e.ID]; gate == nil {
			t.Errorf("%s has no gate", e.ID)
		} else if err := gate(t, committedTables(t, e.ID)); err != nil {
			t.Errorf("%s gate fails the committed tables: %v", e.ID, err)
		}
	}
	mutated := map[string]bool{}
	for _, tc := range []struct {
		id, table, col string
		row            int
		cell           string
	}{
		{"A1", "A1:", "ops/sec", 3, "20.00M"},
		{"A3", "A3:", "ops/sec", 1, "1.00M"},
		{"A4", "A4:", "msg wins?", 2, "no"},
		{"E1", "E1 /", "message", 3, "20.00M"},
		{"E1", "E1 /", "biglock", 2, "9.00M"},
		{"E2", "E2 /", "ops/sec", 2, "3.00M"},
		{"E3", "E3 /", "cycles", 2, "60.00"},
		{"E3", "E3 /", "cycles", 6, "400.00"},
		{"E4", "E4 /", "channel wasted %", 0, "0.1%"},
		{"E5", "E5 /", "message (vnode threads)", 1, "1.40M"},
		{"E5", "E5b:", "ops/sec", 1, "1.40M"},
		{"E6", "E6 /", "service threads", 3, "100"},
		{"E7", "E7 /", "supervised downtime", 1, "0.0400 s"},
		{"E7", "E7 /", "monolithic nines", 0, "9.5"},
		{"E8", "E8 /", "corrupted requests", 0, "1"},
		{"E8", "E8 /", "corrupted requests", 2, "0"},
		{"E9", "E9b:", "16 cores", 4, "1.00M"},
		{"E10", "E10 /", "verdict", 7, "ok"},
		{"E11", "E11 /", "poll wasted polls/op", 2, "0.00"},
		{"E12", "E12 /", "copy tax", 3, "1.00x"},
		{"E13", "E13 /", "VM cluster (4-core VMs)", 2, "40.00M"},
		{"E14", "E14 /", "conns/sec", 1, "40.00k"},
		{"E14", "E14b:", "req/sec", 1, "300.00k"},
		{"E15", "E15 /", "conservation", 1, "1 VIOLATED"},
		{"E15", "E15b:", "ops/sec", 1, "80.00k"},
		{"E15", "E15d /", "refused", 0, "3"},
		{"E15", "E15d /", "compactions", 1, "0"},
		{"E16", "E16 /", "repl batches", 1, "0"},
		{"E16", "E16b /", "lost", 1, "1"},
		{"E16", "E16b /", "acked puts", 0, "0"},
		{"E16", "E16b /", "replica replayed", 0, "0"},
		{"E17", "E17 /", "lost", 1, "1"},
		{"E17", "E17 /", "sync records", 1, "0"},
		{"E17", "E17c /", "scraped", 2, "no"},
		{"E17", "E17c /", "conservation violations", 0, "2"},
		{"E17", "E17c /", "", 2, ""},
		{"E17", "E17b /", "GETs/sec", 1, "700.00k"},
		{"E18", "E18 /", "lost", 0, "1"},
		{"E18", "E18 /", "tolerated", 1, "0"},
		{"E19", "E19 /", "red", 1, "1"},
	} {
		tables := committedTables(t, tc.id)
		tb := table(t, tables, tc.table)
		if tc.col == "" { // drop rows from tc.row on
			tb.Rows = tb.Rows[:tc.row]
		} else {
			tb.Rows[tc.row][col(t, tb, tc.col)] = tc.cell
		}
		if gate := gates[tc.id]; gate != nil {
			mutated[tc.id] = true
			if gate(t, tables) == nil {
				t.Errorf("%s gate passed with %q %q row %d set to %q", tc.id, tc.table, tc.col, tc.row, tc.cell)
			}
		}
	}
	for _, e := range All() {
		if !mutated[e.ID] {
			t.Errorf("%s gate is never shown a mutated table", e.ID)
		}
	}
}
