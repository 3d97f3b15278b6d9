package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"chanos/internal/dump"
)

// TestInspectClusterDump: the summary of a 3×2 cluster dump renders
// one block per serving node — node id, map version, a live scheduler,
// NIC and netstack, and both replica stores — and the dump passes
// validation.
func TestInspectClusterDump(t *testing.T) {
	w := dump.BuildCluster(7, dump.Config{Machines: 3, RF: 2, Clients: 9,
		Requests: 150, ReadPct: 50, Keys: 90, ValBytes: 64})
	defer w.Close()
	w.Run()
	d := w.C.Snapshot("on-demand")

	var out strings.Builder
	if code := inspect(&out, "cluster.dump.json", d); code != 0 {
		t.Fatalf("inspect exited %d:\n%s", code, out.String())
	}
	text := out.String()
	for i := 0; i < 3; i++ {
		if want := fmt.Sprintf("  node %d      map v1, 2 replica machines\n", i); !strings.Contains(text, want) {
			t.Errorf("summary lacks %q", want)
		}
	}
	for _, line := range []string{
		`    sched     [1-9][0-9]* cores, [1-9][0-9]* threads`,
		`    nic       [1-9][0-9]* queues`,
		`    net       [1-9][0-9]* shards`,
		`    store     #0 `,
		`    replica1  #0 `,
	} {
		if n := len(regexp.MustCompile("(?m)^"+line).FindAllString(text, -1)); n != 3 {
			t.Errorf("%d lines match %q, want one per node:\n%s", n, line, text)
		}
	}
}
