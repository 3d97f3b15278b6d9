package core

import (
	"fmt"
	"strings"
	"testing"

	"chanos/internal/machine"
	"chanos/internal/sim"
)

// Label is fmt.Sprintf for the %d verb, however large the ids.
func TestLabelMatchesSprintf(t *testing.T) {
	rt := newRT(t, 1, Config{})
	for _, c := range []struct {
		format string
		ids    []int
		want   string
	}{
		{"conn.%d.recv", []int{0}, "conn.0.recv"},
		{"kv.conn.%d", []int{1 << 40}, "kv.conn.1099511627776"},
		{"fwd.%d.%d.%d", []int{2, -1, 65536}, "fwd.2.-1.65536"},
		{"timer", nil, "timer"},
		{"", nil, ""},
	} {
		if got := rt.Label(c.format, c.ids...); got != c.want {
			t.Errorf("Label(%q, %v) = %q, want %q", c.format, c.ids, got, c.want)
		}
	}
	long := strings.Repeat("x", 2*labelChunk) + ".%d"
	if got := rt.Label(long, 7); got != fmt.Sprintf(long, 7) {
		t.Errorf("a label longer than a chunk reads %d bytes, want %d", len(got), len(fmt.Sprintf(long, 7)))
	}
}

// Labels are substrings of chunks that are only ever appended to: 10k
// of them, across dozens of chunk rollovers, all still read as their
// fmt.Sprintf form once every one has been written.
func TestLabelArenaKeepsEveryLabel(t *testing.T) {
	rt := newRT(t, 1, Config{})
	const n = 10_000
	labels := make([]string, n)
	chunks := 0
	for i := range labels {
		labels[i] = rt.Label("conn.%d.recv.%d", i, n-i)
		if rt.labels.Len() == len(labels[i]) {
			chunks++ // the label opened a fresh chunk
		}
	}
	if rt.labels.Cap() != labelChunk || chunks < 20 {
		t.Fatalf("chunk of %d bytes, %d chunks seen: want %d-byte chunks and many rollovers", rt.labels.Cap(), chunks, labelChunk)
	}
	for i, l := range labels {
		if want := fmt.Sprintf("conn.%d.recv.%d", i, n-i); l != want {
			t.Fatalf("label %d reads %q after the arena moved on, want %q", i, l, want)
		}
	}
}

// A label allocates only its share of a chunk: one 4 KB chunk per ~200
// names of this length.
func TestLabelAllocs(t *testing.T) {
	rt := newRT(t, 1, Config{})
	id := 1 << 20
	const n = 1000
	run := func() {
		for i := 0; i < n; i++ {
			rt.Label("kv.conn.%d", id)
			id++
		}
	}
	run()
	if per := testing.AllocsPerRun(10, run) / n; per >= 0.05 {
		t.Fatalf("a label allocates %.3f objects on average, want < 0.05", per)
	}
}

// Two runtimes on one engine label alternately, and neither one's names
// ever land in the other's chunk: a chunk belongs to one runtime, so it
// is freed with that runtime's names alone.
func TestLabelChunksArePerRuntime(t *testing.T) {
	eng := sim.NewEngine()
	var rts [2]*Runtime
	for i := range rts {
		rts[i] = NewRuntime(machine.New(eng, machine.DefaultParams(1)), Config{})
		t.Cleanup(rts[i].Shutdown)
	}
	prefix := [2]string{"a", "b"}
	for i := 0; i < 3*labelChunk/8; i++ {
		for r, rt := range rts {
			l := rt.Label(prefix[r]+".%d;", i)
			chunk := rt.labels.String()
			if !strings.HasSuffix(chunk, l) || strings.Contains(chunk, prefix[1-r]+".") {
				t.Fatalf("runtime %s's chunk after label %q holds another runtime's names: %.40q…", prefix[r], l, chunk)
			}
		}
	}
}
