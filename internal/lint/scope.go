package lint

import "strings"

// Scoping: which analyzers apply to which packages. The contracts are
// not uniform across the tree — the engine and device layers *are* the
// allowed home of goroutines and buffer reuse, and the legacy seed
// subsystems (core's coroutine-thread runtime, vfs/vm/ipc/proto, the
// deliberately lock-based baseline foil) predate the netstack-era
// determinism contract. The tables below are the single source of
// truth; DESIGN.md §static-analysis documents the rationale per row.

// scheduleAffecting lists the package prefixes whose code runs on (or
// drives) the simulation engine's event schedule: a map-order-dependent
// loop here perturbs same-seed runs — the PR 8 audit bug class.
var scheduleAffecting = []string{
	"chanos/internal/store",
	"chanos/internal/net",
	"chanos/internal/cluster",
	"chanos/internal/kernel",
	"chanos/internal/sched",
	"chanos/internal/dump",
	"chanos/internal/exp",
	"chanos/internal/telemetry",
	"chanos/internal/machine",
	"chanos/internal/sim",
	"chanos/internal/blockdev",
	"chanos/internal/workload",
	"chanos/internal/supervise",
	"chanos/internal/event",
	"chanos/cmd/",
	"chanos/examples/",
}

// engineLayer lists the packages allowed to hold shared state and
// goroutines: the simulation engine itself, the device layer beneath
// the message discipline, and baseline — the paper's lock-based
// counterexample, whose entire point is to use the primitives the rest
// of the tree may not. core is not among them: its threads are
// coroutines (iter.Pull), so it starts no goroutine and takes no lock.
var engineLayer = []string{
	"chanos/internal/sim",
	"chanos/internal/machine",
	"chanos/internal/blockdev",
	"chanos/internal/baseline",
}

// wallclockScope: the simulated clock and seeded RNG are the only
// time/randomness sources for everything under internal/ and
// examples/ (cmd/ binaries may report wall time to their caller —
// which is why the root facade package is matched exactly in Applies
// rather than listed here as a prefix that would swallow chanos/cmd).
var wallclockScope = []string{
	"chanos/internal/",
	"chanos/examples/",
}

func hasPrefixAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == strings.TrimSuffix(p, "/") || strings.HasPrefix(path, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}

// Applies reports whether analyzer a is scoped to the package with the
// given import path.
func Applies(a *Analyzer, importPath string) bool {
	switch a.Name {
	case "mapiter":
		return hasPrefixAny(importPath, scheduleAffecting)
	case "wallclock":
		// The root facade package runs on the engine too, but only it:
		// chanos/cmd binaries may legitimately read the host clock.
		return importPath == "chanos" || hasPrefixAny(importPath, wallclockScope)
	case "sharedstate":
		return strings.HasPrefix(importPath, "chanos") &&
			!hasPrefixAny(importPath, engineLayer)
	case "msgownership":
		return strings.HasPrefix(importPath, "chanos") &&
			!hasPrefixAny(importPath, []string{"chanos/internal/baseline"})
	default:
		return true
	}
}
