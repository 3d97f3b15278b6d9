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
// quick seed-42 runs. TestAllExperimentsProduceTables compares each fresh
// run with its committed file (diffBench) and runs the experiment's gate
// predicates over the same tables (gates).

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

// column returns the cells of tb's column called name, one per row.
func column(t testing.TB, tb *stats.Table, name string) []string {
	t.Helper()
	c := col(t, tb, name)
	cells := make([]string, len(tb.Rows))
	for i, r := range tb.Rows {
		cells[i] = cell(r, c)
	}
	return cells
}

func num(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// gates are the per-experiment predicates over named columns that the
// pinned tables must satisfy, beyond what the experiments' own tests
// check on their direct measurements.
var gates = map[string]func(testing.TB, []*stats.Table) error{
	"E15": gateE15,
	"E16": gateE16,
	"E17": gateE17,
}

// gateE15: every cores row's final telemetry snapshot balances its
// conservation laws, and the churn workload (E15d) writes far past the
// log capacity with not one write refused while compaction runs.
func gateE15(t testing.TB, tables []*stats.Table) error {
	for i, c := range column(t, table(t, tables, "E15 /"), "conservation") {
		if c != "ok" {
			return fmt.Errorf("E15 cores row #%d: conservation %q", i+1, c)
		}
	}
	churn := table(t, tables, "E15d /")
	compactions := column(t, churn, "compactions")
	compacted := false
	for i, r := range column(t, churn, "refused") {
		if r != "0" {
			return fmt.Errorf("E15d row #%d: %s writes refused", i+1, r)
		}
		compacted = compacted || num(compactions[i]) > 0
	}
	if !compacted {
		return errors.New("E15d: the churn workload never compacted")
	}
	return nil
}

// gateE16: every seeded primary kill (E16b) tracked acked PUTs and lost
// none of them.
func gateE16(t testing.TB, tables []*stats.Table) error {
	kills := table(t, tables, "E16b /")
	seeds, lost := column(t, kills, "seed"), column(t, kills, "lost")
	if len(seeds) == 0 {
		return errors.New("E16b: no kill rows")
	}
	for i, acked := range column(t, kills, "acked puts") {
		if num(acked) == 0 || lost[i] != "0" {
			return fmt.Errorf("E16b seed %s: acked puts %s, lost %s", seeds[i], acked, lost[i])
		}
	}
	return nil
}

// gateE17: at least three heal cycles took a live STATS scrape (E17c),
// and every scrape returned a snapshot whose conservation laws hold.
func gateE17(t testing.TB, tables []*stats.Table) error {
	scrapes := table(t, tables, "E17c /")
	violations := column(t, scrapes, "conservation violations")
	scraped := column(t, scrapes, "scraped")
	if len(scraped) < 3 {
		return fmt.Errorf("E17c: %d scrape rows, want >= 3", len(scraped))
	}
	for i, s := range scraped {
		if s != "yes" || violations[i] != "0" {
			return fmt.Errorf("E17c cycle #%d: scraped %s, conservation violations %s", i+1, s, violations[i])
		}
	}
	return nil
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

// TestGatesCatchMutatedTables: every gate passes the committed tables
// and fails each single-cell edit that breaks its predicate.
func TestGatesCatchMutatedTables(t *testing.T) {
	for _, tc := range []struct {
		id, table, col string
		row            int
		cell           string
	}{
		{"E15", "E15 /", "conservation", 1, "1 VIOLATED"},
		{"E15", "E15d /", "refused", 0, "3"},
		{"E15", "E15d /", "compactions", -1, "0"},
		{"E16", "E16b /", "lost", 1, "1"},
		{"E16", "E16b /", "acked puts", 0, "0"},
		{"E17", "E17c /", "scraped", 2, "no"},
		{"E17", "E17c /", "conservation violations", 0, "2"},
		{"E17", "E17c /", "", 2, ""},
	} {
		tables := committedTables(t, tc.id)
		if err := gates[tc.id](t, tables); err != nil {
			t.Fatalf("%s gate fails the committed tables: %v", tc.id, err)
		}
		tb := table(t, tables, tc.table)
		switch {
		case tc.col == "": // drop rows from tc.row on
			tb.Rows = tb.Rows[:tc.row]
		case tc.row < 0: // every row
			c := col(t, tb, tc.col)
			for _, r := range tb.Rows {
				r[c] = tc.cell
			}
		default:
			tb.Rows[tc.row][col(t, tb, tc.col)] = tc.cell
		}
		if err := gates[tc.id](t, tables); err == nil {
			t.Errorf("%s gate passed with %q %q row %d set to %q", tc.id, tc.table, tc.col, tc.row, tc.cell)
		}
	}
}
