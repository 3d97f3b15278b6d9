// Package stats provides the small measurement toolkit shared by the
// experiment harness: log-bucketed latency histograms and aligned-text /
// CSV table emitters that print the rows and series each experiment
// reports.
package stats

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"text/tabwriter"
)

// Histogram is a log2-bucketed histogram of uint64 samples (latencies in
// cycles, sizes in bytes, ...). The zero value is ready to use.
type Histogram struct {
	counts [65]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	b := bits.Len64(v) // 0 for v==0, else floor(log2(v))+1
	h.counts[b]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile estimates the p-th percentile (p in [0,100]) by locating
// the bucket containing that rank and interpolating linearly between
// the bucket's bounds by the rank's position within it. The former
// implementation returned the bucket's upper bound, which quantised
// every percentile to a power of two minus one — a reported "p99" of
// 1023 cycles covered true values anywhere in [512, 1023], and small
// real regressions vanished until they crossed a bucket edge. The
// interpolated estimate is still bucket-limited (the true in-bucket
// distribution is unknown) but is monotone in p, exact at p100 (the
// recorded max), and moves when the rank moves. Experiment tables
// carry a note where the change shifts reported numbers.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(h.n-1)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		before := seen
		seen += float64(c)
		if seen <= rank {
			continue
		}
		if b == 0 {
			return 0 // the zero-sample bucket
		}
		lower := uint64(1) << (b - 1)
		upper := uint64(1)<<b - 1
		if upper > h.max {
			upper = h.max
		}
		if lower < h.min {
			lower = h.min
		}
		if lower >= upper {
			return upper
		}
		// Position of the rank among this bucket's c samples. With one
		// sample there is nothing to interpolate between; the upper
		// bound keeps p100-through-a-single-sample-bucket exact.
		frac := 1.0
		if c > 1 {
			frac = (rank - before) / float64(c-1)
			if frac > 1 {
				frac = 1
			}
		}
		return lower + uint64(frac*float64(upper-lower)+0.5)
	}
	return h.max
}

// Merge adds all samples from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Table is a titled grid of cells with optional footnotes; it renders as
// aligned text or CSV, and marshals as one table of a BENCH_<id>.json.
type Table struct {
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Cols, "\t"))
	sep := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		sep[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV renders the table (without title or notes) as comma-separated
// values with minimal quoting.
func (t *Table) CSV(w io.Writer) {
	row := func(cells []string) {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		fmt.Fprintln(w, strings.Join(out, ","))
	}
	row(t.Cols)
	for _, r := range t.Rows {
		row(r)
	}
}

// F formats a float with 2 decimal places, using engineering-style
// thousands grouping for big magnitudes.
func F(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// U formats a uint64 with the same grouping as F.
func U(v uint64) string { return F(float64(v)) }

// Ratio formats a/b as "x.xx×" (or "inf" when b is 0).
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
