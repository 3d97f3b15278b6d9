// The scenario harness: run one seeded fault schedule against one
// scenario (solo kvload, replicated kvload, or an N-machine cluster)
// to completion or fail-stop, then gate the run on the four global
// invariants:
//
//	acked-loss     — zero acked-write loss: every PUT a client saw
//	                 acknowledged reads back at >= its acked version,
//	                 live at the serving store — or, when its shard
//	                 fail-stopped, from the primary platters alone
//	                 (the e16 offline-recovery audit).
//	client-hang    — no client hangs: the fleet never stalls out, the
//	                 audit drains, and a fail-stopped shard holds zero
//	                 parked work (every pending reply was nacked).
//	staleness      — bounded replica staleness: no armed (quorum-
//	                 counted) attachment's captured-but-unacked lag
//	                 ever exceeds StalenessCap.
//	failstop-heal  — fail-stop or heal: the run ends solo, failed-over
//	                 or at quorum; or it ends failed WITH a recorded
//	                 "failstop" flight event and a captured machine
//	                 dump. Ending stuck in syncing is a violation.
//
// A red run writes its machine dump (the fail-stop dump if one was
// captured, else an on-demand snapshot) and reports the one-command
// chanos-sim -replay line. The dump's config carries the serialized
// schedule, so the replay re-arms the identical fault timeline and
// halts at the recorded event.
package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"chanos/internal/cluster"
	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/store"
)

// Invariant names, as they appear in Result.Violations and the matrix.
const (
	InvAckedLoss  = "acked-loss"
	InvClientHang = "client-hang"
	InvStaleness  = "staleness"
	InvFailStop   = "failstop-heal"
)

// Invariants lists all four, in reporting order.
var Invariants = []string{InvAckedLoss, InvClientHang, InvStaleness, InvFailStop}

// StalenessCap bounds an armed attachment's captured-but-unacked lag
// (replication sequence numbers). Armed acks gate client writes, so
// lag above in-flight-write magnitude means acks are outrunning
// durability — the staleness invariant's failure mode.
const StalenessCap = 4096

// Harness drive-loop policy (host-side; never event-sequence state),
// as cycle horizons: each divides exactly by both worlds' drive slices
// (400k cycles kvload, 100k cluster), so a phase's slice budget is
// horizon / slice. Budgets are sized for the worst legitimate laggard:
// a loss/slowdown window can oversubscribe a shard's serial disk
// several-fold, leaving a backlog of hundreds of millions of cycles
// that drains only after the workload finishes — the drain and audit
// budgets must outlast it, or a merely-slow run reads as a hung one.
const (
	stallCycles  = 100_000_000 // zero-progress fleet horizon, past the wire's RTO give-up
	drainCycles  = 800_000_000
	auditCycles  = 800_000_000
	settleSlices = 3 // consecutive stable slices before drain exits
)

// quiesced reports whether every shard of st has settled: no open-block
// writes awaiting their flush, no flush in flight on the disk, and no
// write parked for replica votes. The drain phase holds for this before
// the audit runs, so an audit Get queues behind at most one cache-miss
// read — not a whole backlog of group commits.
func quiesced(st *store.Store) bool {
	for _, sh := range st.SnapshotShards() {
		if sh.Failed != "" {
			continue // fail-stop nacked its parked work; counters are final
		}
		if sh.Dirty > 0 || sh.FlushesIssued != sh.FlushesDone || sh.ReplWait > 0 {
			return false
		}
	}
	return true
}

// failstopped reports whether the fail-stop arm of the client-hang
// invariant applies: the store died loudly (a "failstop" flight event)
// and captured its machine dump. A client fleet stalling against a
// fail-stopped machine is the contract working, not a hang.
func failstopped(lc string, kinds map[string]uint64, dumped bool) bool {
	return lc == store.LifecycleFailed && kinds["failstop"] > 0 && dumped
}

// Spec is one chaos run.
type Spec struct {
	Label string // matrix row label ("solo", "repl", "cluster3", ...)
	Seed  uint64
	// Cfg selects the scenario (Machines > 0 = cluster). If Cfg.Chaos
	// is set it is parsed as the schedule; else Sched is used; else a
	// schedule is generated from (Cfg, Seed).
	Cfg   dump.Config
	Sched Schedule
	// DumpDir receives red-run machine dumps ("" = current directory).
	DumpDir string
	// StopAt arms StopAtFired(StopAt) before driving — the replay path.
	// Invariant evaluation and red-dump writing are skipped on a halted
	// run (its state is frozen mid-flight by design).
	StopAt uint64
	// KeepWorld leaves the scenario world open on the Result (caller
	// closes) — replay inspection and differential dumps need it.
	KeepWorld bool
}

// Result is one chaos run's verdict.
type Result struct {
	Label    string `json:"label"`
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Schedule string `json:"schedule"`

	EventCount   uint64            `json:"event_count"` // engine counted events at end
	EndCycles    sim.Time          `json:"end_cycles"`
	FiredClauses []string          `json:"fired_clauses"`
	FlightKinds  map[string]uint64 `json:"flight_kinds,omitempty"`
	Lifecycles   []string          `json:"lifecycles"` // final, per node

	Violations []string `json:"violations,omitempty"` // invariant names, reporting order
	Details    []string `json:"details,omitempty"`    // one human line per violation

	AuditKeys     int    `json:"audit_keys"`
	AuditLost     int    `json:"audit_lost"`
	AuditOffline  int    `json:"audit_offline"` // keys that needed the platter audit
	Stalled       bool   `json:"stalled"`
	Halted        bool   `json:"halted"` // StopAtFired tripped (replay)
	MigStarted    int    `json:"mig_started,omitempty"`
	MigCompleted  int    `json:"mig_completed,omitempty"`
	ReplTolerated uint64 `json:"repl_tolerated,omitempty"`

	DumpPath  string `json:"dump_path,omitempty"`
	ReplayCmd string `json:"replay_cmd,omitempty"`

	// World is the scenario world, kept open with Spec.KeepWorld.
	World dump.Scenario `json:"-"`
}

// Red reports whether any invariant was violated.
func (r *Result) Red() bool { return len(r.Violations) > 0 }

func (r *Result) violate(inv, format string, args ...any) {
	for _, v := range r.Violations {
		if v == inv {
			r.Details = append(r.Details, inv+": "+fmt.Sprintf(format, args...))
			return
		}
	}
	r.Violations = append(r.Violations, inv)
	r.Details = append(r.Details, inv+": "+fmt.Sprintf(format, args...))
}

// Close releases a kept world.
func (r *Result) Close() {
	if r.World != nil {
		r.World.Close()
		r.World = nil
	}
}

// Run executes one chaos run per the spec and judges it.
func Run(spec Spec) (*Result, error) {
	sched := spec.Sched
	if spec.Cfg.Chaos != "" {
		var err error
		if sched, err = Parse(spec.Cfg.Chaos); err != nil {
			return nil, err
		}
	}
	if sched == nil {
		sched = Generate(spec.Cfg, spec.Seed)
	}
	if err := sched.Validate(spec.Cfg); err != nil {
		return nil, err
	}
	r := &Result{Label: spec.Label, Seed: spec.Seed, Schedule: sched.String()}
	cfg := spec.Cfg
	cfg.Chaos = sched.String()
	v := boot(spec.Seed, cfg)
	if spec.KeepWorld {
		r.World = v.world
	} else {
		defer v.world.Close()
	}
	judge(spec, sched, v, r)
	return r, nil
}

// view is the judge's surface over one booted scenario world: what
// differs between a kvload machine and a cluster, and nothing else.
type view struct {
	world dump.Scenario
	// keyAt indexes the scenario keyspace (bitrot targets).
	keyAt func(i int) string
	// owners returns the key → serving-node mapping as it stands now
	// (the audit asks each key's owner).
	owners func() func(key string) int
	// acked is the acked-write ledger, read once the fleet has been
	// retired.
	acked func() store.Ledger
	// stop retires every client fleet.
	stop func()
	// migrate starts a live migration (cluster worlds; nil otherwise).
	migrate func(rangeIdx, dest int, onDone func(cluster.MigrationReport)) bool
}

// boot builds the world cfg selects (Machines > 0 = cluster) and its
// view.
func boot(seed uint64, cfg dump.Config) *view {
	if cfg.Machines > 0 {
		w := dump.BuildCluster(seed, cfg)
		return &view{
			world:   w,
			keyAt:   func(i int) string { return w.Keys()[i%len(w.Keys())] },
			owners:  func() func(string) int { return w.Cl.Map(0).NodeFor },
			acked:   func() store.Ledger { return w.Pool.AckedPuts },
			stop:    func() { w.Pool.Stop() },
			migrate: w.Cl.TryMigrate,
		}
	}
	w := dump.Build(seed, cfg)
	filled := w.Config()
	acked := store.Ledger{}
	w.TapResp = func(client int, m core.Msg) {
		if resp, ok := m.(store.KVResponse); ok {
			acked.Ack(w.WL.Outstanding(client), resp)
		}
	}
	return &view{
		world:  w,
		keyAt:  func(i int) string { return w.WL.Key(i % filled.Keys) },
		owners: func() func(string) int { return func(string) int { return 0 } },
		acked:  func() store.Ledger { return acked },
		stop: func() {
			w.Pool.Stop()
			if w.RPool != nil {
				w.RPool.Stop()
			}
		},
	}
}

// judge drives one armed world through the harness phases — fleet,
// drain, live audit — and judges the four invariants over every
// serving node.
func judge(spec Spec, sched Schedule, v *view, r *Result) {
	d := v.world.Driver()
	filled := d.Config()
	r.Scenario = filled.Scenario
	eng, nodes, slice := d.C.Eng, d.C.Nodes, d.Slice()
	if spec.StopAt > 0 {
		eng.StopAtFired(spec.StopAt)
	}

	var failDump *dump.Dump
	d.C.OnFailStop(func(fd *dump.Dump) { failDump = fd })

	a := newArmer(&faultPlane{eng: eng, nodes: nodes, keyAt: v.keyAt, tryMigrate: v.migrate})
	a.arm(sched)

	var peakLag uint64
	sample := func() {
		for _, n := range nodes {
			for _, st := range n.KV.LifecycleReport() {
				if st.State == store.LifecycleQuorum && st.MaxLag > peakLag {
					peakLag = st.MaxLag
				}
			}
		}
	}
	d.OnSlice = func(int) { sample() }
	d.StallBudget = int(stallCycles / slice)

	rep := v.world.Run()
	r.Stalled = rep.Stalled

	// Retire the fleet before the drain: the closed loop reschedules
	// forever, so a live fleet keeps pushing the quiescence horizon away.
	// The workload verdict is already in (rep); the invariants judge the
	// acked ledger, not further traffic. The stop instant is a function
	// of simulated state (the drive loop's own exit), so replays retire
	// the fleet at the identical event.
	v.stop()

	// Drain: give detection its horizon and the disks their backlog —
	// run until every node's lifecycle leaves syncing, every started
	// migration has reported (done or aborted), and every store has
	// quiesced (disk backlogs served, replica votes landed), bounded,
	// sampling staleness throughout.
	settled := 0
	for i := 0; i < int(drainCycles/slice) && !eng.StopReached(); i++ {
		sample()
		stable := a.migPending() == 0
		for _, n := range nodes {
			if n.KV.Lifecycle() == store.LifecycleSyncing || !quiesced(n.KV) {
				stable = false
			}
		}
		if stable {
			settled++
		} else {
			settled = 0
		}
		if settled >= settleSlices {
			break
		}
		d.RunFor(slice)
	}

	// Live audit at each key's owner, booted on node 0, then the
	// platter audit per node for keys whose live read failed.
	acked := v.acked()
	keys := detmap.Keys(acked)
	r.AuditKeys = len(keys)
	owner := v.owners()
	var liveLost []string
	erredByNode := make(map[int][]string)
	audited := false
	if !eng.StopReached() {
		nodes[0].RT.Boot("chaos.audit", func(t *core.Thread) {
			var erred []string
			liveLost, erred = acked.LiveAudit(t, keys, func(key string) *store.Store { return nodes[owner(key)].KV })
			for _, key := range erred {
				erredByNode[owner(key)] = append(erredByNode[owner(key)], key)
			}
			audited = true
		})
		for i := 0; i < int(auditCycles/slice) && !audited && !eng.StopReached(); i++ {
			d.RunFor(slice)
		}
	}

	r.EventCount = eng.Fired()
	r.EndCycles = eng.Now()
	r.Halted = eng.StopReached()
	r.FiredClauses = a.fired
	r.FlightKinds = a.kinds
	r.MigStarted = a.migStarted
	r.MigCompleted = len(a.migReports)
	for _, n := range nodes {
		r.Lifecycles = append(r.Lifecycles, n.KV.Lifecycle())
		r.ReplTolerated += n.KV.Counters().ReplTolerated
	}
	if r.Halted {
		return // frozen mid-flight: replay inspection, not judgement
	}

	// acked-loss.
	if len(liveLost) > 0 {
		r.violate(InvAckedLoss, "%d acked writes unreadable at their owner (first %q)", len(liveLost), liveLost[0])
	}
	if !audited {
		// The live world never answered: judge every owner's platters.
		for _, key := range keys {
			erredByNode[owner(key)] = append(erredByNode[owner(key)], key)
		}
	}
	for node, keys := range detmap.Sorted(erredByNode) {
		r.AuditOffline += len(keys)
		want := make(map[string]uint64, len(keys))
		for _, k := range keys {
			want[k] = acked[k]
		}
		if lost := offlineAudit(nodes[node].KV, filled.Cores, spec.Seed+uint64(node), want); lost > 0 {
			r.violate(InvAckedLoss, "node %d: %d acked writes missing from primary platters", node, lost)
		}
	}

	// client-hang. Abandoned cluster requests (Pool.Lost, after bounded
	// retries) are loud failures, not hangs, so they do not violate;
	// and a stall or dead prefill against a loudly fail-stopped node is
	// the fail-stop arm of the invariant, not a hang.
	loud := false
	for _, n := range nodes {
		if failstopped(n.KV.Lifecycle(), a.kinds, failDump != nil) {
			loud = true
		}
	}
	if rep.Stalled && !loud {
		r.violate(InvClientHang, "fleet made no progress for %d slices", d.StallBudget)
	}
	if !rep.Filled && !loud {
		r.violate(InvClientHang, "prefill never completed")
	}
	if !audited {
		r.violate(InvClientHang, "live audit did not drain in %d slices", auditCycles/slice)
	}
	for i, n := range nodes {
		if n.KV.Lifecycle() != store.LifecycleFailed {
			continue
		}
		for _, sh := range n.KV.SnapshotShards() {
			if sh.Failed == "" {
				continue
			}
			if parked := sh.Waiters + sh.ReplWait + sh.ParkedReads + sh.ParkedReplGet; parked > 0 {
				r.violate(InvClientHang, "node %d failed shard %d holds %d parked replies", i, sh.Shard, parked)
			}
		}
	}

	// staleness.
	if peakLag > StalenessCap {
		r.violate(InvStaleness, "armed attachment lag peaked at %d (cap %d)", peakLag, StalenessCap)
	}

	// failstop-or-heal, per node.
	for i, n := range nodes {
		judgeLifecycle(r, i, n.KV.Lifecycle(), a.kinds, failDump != nil)
	}

	writeRedDump(spec, r, failDump, d.C)
}

// judgeLifecycle applies the failstop-or-heal rule to one node's final
// lifecycle state.
func judgeLifecycle(r *Result, node int, lc string, kinds map[string]uint64, dumped bool) {
	switch lc {
	case store.LifecycleSolo, store.LifecycleFailedOver, store.LifecycleQuorum:
	case store.LifecycleFailed:
		if kinds["failstop"] == 0 {
			r.violate(InvFailStop, "node %d failed without a recorded failstop flight event", node)
		}
		if !dumped {
			r.violate(InvFailStop, "node %d failed without a captured machine dump", node)
		}
	default: // syncing at the end of the drain budget: neither state
		r.violate(InvFailStop, "node %d stuck in %q after the drain budget", node, lc)
	}
}

// writeRedDump persists a red run's machine dump (the fail-stop dump
// when one was captured, else an on-demand snapshot whose event count
// includes the drain and audit phases — chaos.Replay re-runs those
// phases, so the coordinate still lands exactly). A replay writes none:
// its dump is the one it replays.
func writeRedDump(spec Spec, r *Result, failDump *dump.Dump, c *dump.Collector) {
	if !r.Red() || spec.StopAt > 0 {
		return
	}
	d := failDump
	if d == nil {
		d = c.Snapshot("chaos: " + strings.Join(r.Violations, ","))
	}
	path := filepath.Join(spec.DumpDir, d.FileName())
	if err := dump.WriteFile(path, d, c); err != nil {
		r.Details = append(r.Details, "dump write failed: "+err.Error())
		return
	}
	r.DumpPath = path
	r.ReplayCmd = dump.ReplayCommand(path)
}

// offlineAudit is the offline durability check (store.Audit) against
// kv's platters as they stand now. Returns how many wanted keys are
// missing or stale.
func offlineAudit(kv *store.Store, cores int, seed uint64, want map[string]uint64) int {
	return store.Audit(cores, seed+0xA0D17, kv.P, kv.Platters(), want).Lost
}
