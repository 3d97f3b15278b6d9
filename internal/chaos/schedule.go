// The schedule grammar: a chaos schedule is a list of clauses, each a
// seeded trigger plus a fault, serialized to one canonical string that
// folds into dump.Config.Chaos — the whole fault timeline rides the
// (seed, config, event-count) repro triple and replays with it.
//
//	schedule := clause (";" clause)*
//	clause   := trigger ":" fault
//	trigger  := "cy:" cycles | "ev:" eventCount | "pred:" flightKind
//	fault    := kind (":" int)*
//
// Trigger kinds:
//
//	cy:N    — at absolute engine cycle N (a counted engine event).
//	ev:N    — the instant counted event N completes (Engine.AtFired);
//	          the same coordinate StopAtFired halts on, so the fault
//	          lands identically in original runs and dump replays.
//	pred:K  — the first flight-recorder event of kind K on any of the
//	          scenario's primary stores ("first compaction seal" is
//	          pred:compact-start, "replica loss during sync" composes
//	          pred:sync-start with kill-replica).
//
// Fault kinds and their integer arguments:
//
//	kill-replica:node:slot          — power off a replica machine
//	disk-fail:node:shard:writes     — next N log writes on a shard fail
//	wire-loss:node:permille:window  — client-facing wire drops p/1000
//	                                  per packet for window cycles
//	                                  (window 0 = rest of the run)
//	repl-loss:node:slot:permille:window — same, on a replica machine's
//	                                  wire (a window past the RTO
//	                                  give-up horizon = replica loss)
//	nic-slow:node:factor:window     — scale the node's NIC DMA +
//	                                  serialisation costs by factor
//	migrate:range:dest              — live shard-map migration (cluster
//	                                  scenarios; busy source = no-op)
//	bitrot:node:keyIdx              — silently drop a key's index entry
//	                                  (red-schedule fuel: generated
//	                                  schedules never include it)
//
// Single-machine scenarios use node 0 everywhere.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"chanos/internal/dump"
	"chanos/internal/sim"
)

// Trigger kinds.
const (
	TrigCycle = "cy"
	TrigEvent = "ev"
	TrigPred  = "pred"
)

// Fault kinds.
const (
	FaultKillReplica = "kill-replica"
	FaultDiskFail    = "disk-fail"
	FaultWireLoss    = "wire-loss"
	FaultReplLoss    = "repl-loss"
	FaultNICSlow     = "nic-slow"
	FaultMigrate     = "migrate"
	FaultBitrot      = "bitrot"
)

// faultArity maps each fault kind to its integer-argument count (the
// slice keeps a deterministic listing order for error messages).
var faultArity = []struct {
	kind  string
	arity int
}{
	{FaultKillReplica, 2},
	{FaultDiskFail, 3},
	{FaultWireLoss, 3},
	{FaultReplLoss, 4},
	{FaultNICSlow, 3},
	{FaultMigrate, 2},
	{FaultBitrot, 2},
}

func arityOf(kind string) (int, bool) {
	for _, fa := range faultArity {
		if fa.kind == kind {
			return fa.arity, true
		}
	}
	return 0, false
}

// Clause is one scheduled fault: a trigger and the fault it fires.
type Clause struct {
	Trig string // TrigCycle | TrigEvent | TrigPred
	At   uint64 // cy: absolute cycle; ev: counted-event number
	Pred string // pred: flight-event kind

	Fault string
	Args  []int // integer arguments, arity fixed per fault kind
}

// String renders the clause in canonical grammar form.
func (c Clause) String() string {
	parts := []string{c.Trig}
	if c.Trig == TrigPred {
		parts = append(parts, c.Pred)
	} else {
		parts = append(parts, strconv.FormatUint(c.At, 10))
	}
	parts = append(parts, c.Fault)
	for _, a := range c.Args {
		parts = append(parts, strconv.Itoa(a))
	}
	return strings.Join(parts, ":")
}

// Schedule is an ordered list of clauses. Order matters only for
// equal-instant triggers (they fire in clause order).
type Schedule []Clause

// String renders the canonical form that dump.Config.Chaos records.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return strings.Join(parts, ";")
}

// Parse decodes a canonical schedule string. Parse(s.String()) round-
// trips exactly — replay depends on it.
func Parse(spec string) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out Schedule
	for i, raw := range strings.Split(spec, ";") {
		f := strings.Split(strings.TrimSpace(raw), ":")
		if len(f) < 3 {
			return nil, fmt.Errorf("chaos: clause %d %q: want trigger:arg:fault[:args]", i, raw)
		}
		c := Clause{Trig: f[0]}
		switch f[0] {
		case TrigCycle, TrigEvent:
			n, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("chaos: clause %d: trigger %s wants a positive integer, got %q", i, f[0], f[1])
			}
			c.At = n
		case TrigPred:
			if f[1] == "" {
				return nil, fmt.Errorf("chaos: clause %d: empty predicate kind", i)
			}
			c.Pred = f[1]
		default:
			return nil, fmt.Errorf("chaos: clause %d: unknown trigger kind %q", i, f[0])
		}
		c.Fault = f[2]
		arity, ok := arityOf(c.Fault)
		if !ok {
			return nil, fmt.Errorf("chaos: clause %d: unknown fault kind %q", i, c.Fault)
		}
		if len(f)-3 != arity {
			return nil, fmt.Errorf("chaos: clause %d: fault %s wants %d args, got %d", i, c.Fault, arity, len(f)-3)
		}
		for _, s := range f[3:] {
			a, err := strconv.Atoi(s)
			if err != nil || a < 0 {
				return nil, fmt.Errorf("chaos: clause %d: fault arg %q is not a non-negative integer", i, s)
			}
			c.Args = append(c.Args, a)
		}
		out = append(out, c)
	}
	return out, nil
}

// Validate checks the schedule against a scenario config: node, slot
// and range indexes in bounds, replica faults only where replicas
// exist, migration only on clusters.
func (s Schedule) Validate(cfg dump.Config) error {
	world, nodes, rf := cfg.Shape()
	for i, c := range s {
		switch c.Fault {
		case FaultMigrate:
			if world != dump.ScenarioCluster {
				return fmt.Errorf("chaos: clause %d: migrate needs a cluster scenario", i)
			}
			if c.Args[0] >= nodes || c.Args[1] >= nodes {
				return fmt.Errorf("chaos: clause %d: migrate range/dest out of bounds (%d nodes)", i, nodes)
			}
		case FaultKillReplica, FaultReplLoss:
			if c.Args[0] >= nodes {
				return fmt.Errorf("chaos: clause %d: node %d out of bounds (%d nodes)", i, c.Args[0], nodes)
			}
			if rf == 0 || c.Args[1] >= rf {
				return fmt.Errorf("chaos: clause %d: replica slot %d out of bounds (rf %d)", i, c.Args[1], rf)
			}
		default:
			if c.Args[0] >= nodes {
				return fmt.Errorf("chaos: clause %d: node %d out of bounds (%d nodes)", i, c.Args[0], nodes)
			}
		}
	}
	return nil
}

// Generation windows, in cycles on the 2 GHz simulated machine. The
// single-machine fleet finishes in a few M cycles; the cluster's quorum
// wait and prefill push its active window later. Faults drawn past the
// active window simply never fire (the run ends first) — the matrix
// reports fired-clause counts so dead clauses are visible, not silent.
const (
	// Measured against the DefaultRows configs: a fault-free solo run
	// ends near 15k events / 6.6M cycles, replicated near 22k / 7.8M,
	// a 3-node cluster near 47k / 11M (drain and audit included).
	kvCycleMin, kvCycleSpan = 400_000, 4_000_000
	clCycleMin, clCycleSpan = 1_000_000, 8_000_000
	kvEventMin, kvEventSpan = 1_000, 12_000
	clEventMin, clEventSpan = 4_000, 36_000
	// Loss/slowdown windows.
	faultWinMin, faultWinSpan = 300_000, 2_000_000
	// A replica partition longer than the backed-off RTO give-up
	// horizon (~57M cycles at wire defaults) becomes a replica loss
	// detected AT the horizon — the loud fail-stop-or-tolerate path.
	horizonWin = 70_000_000
)

// Generate derives a seeded fault schedule for cfg's scenario family:
// solo kvload, replicated kvload, or cluster. The draw is deterministic
// in (cfg, seed); the result serializes into cfg.Chaos so replays parse
// the string rather than re-rolling. Generated schedules never include
// bitrot — that fault exists to prove the matrix catches reds.
func Generate(cfg dump.Config, seed uint64) Schedule {
	rng := sim.NewRNG(seed*0x9E3779B97F4A7C15 + 0xC4A05)
	world, nodes, rf := cfg.Shape()
	cluster, shards := world == dump.ScenarioCluster, cfg.Shards
	if shards <= 0 {
		shards = 2
	}

	n := 1 + rng.Intn(3)
	var out Schedule
	for i := 0; i < n; i++ {
		c := Clause{}
		// Trigger: mostly cycle- and event-count triggers, an
		// occasional state predicate.
		switch rng.Intn(6) {
		case 0, 1, 2:
			c.Trig = TrigCycle
			if cluster {
				c.At = clCycleMin + rng.Uint64n(clCycleSpan)
			} else {
				c.At = kvCycleMin + rng.Uint64n(kvCycleSpan)
			}
		case 3, 4:
			c.Trig = TrigEvent
			if cluster {
				c.At = clEventMin + rng.Uint64n(clEventSpan)
			} else {
				c.At = kvEventMin + rng.Uint64n(kvEventSpan)
			}
		default:
			c.Trig = TrigPred
			switch {
			case rf > 0 && rng.Intn(2) == 0:
				c.Pred = "sync-start"
			case rf > 0:
				c.Pred = "quorum"
			default:
				c.Pred = "flush"
			}
		}

		node := rng.Intn(nodes)
		win := func() int { return int(faultWinMin + rng.Uint64n(faultWinSpan)) }
		// Fault menu, weighted toward recoverable wire/NIC trouble with
		// a steady diet of kills and disk faults.
		pick := rng.Intn(10)
		switch {
		case pick < 3:
			c.Fault = FaultWireLoss
			c.Args = []int{node, 100 + rng.Intn(500), win()}
		case pick < 5:
			c.Fault = FaultNICSlow
			c.Args = []int{node, 2 + rng.Intn(3), win()}
		case pick < 7 && rf > 0:
			c.Fault = FaultKillReplica
			c.Args = []int{node, rng.Intn(rf)}
		case pick < 8 && rf > 0:
			// Half the partitions cross the give-up horizon (loud
			// replica loss), half heal under retransmission.
			w := win()
			if rng.Intn(2) == 0 {
				w = horizonWin + win()
			}
			c.Fault = FaultReplLoss
			c.Args = []int{node, rng.Intn(rf), 1000, w}
		case pick < 9 && cluster:
			c.Fault = FaultMigrate
			c.Args = []int{rng.Intn(nodes), rng.Intn(nodes)}
		default:
			c.Fault = FaultDiskFail
			c.Args = []int{node, rng.Intn(shards), 1 + rng.Intn(2)}
		}
		out = append(out, c)
	}
	return out
}
