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

	"chanos"
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

// Harness drive-loop policy (host-side; never event-sequence state).
// Budgets are sized for the worst legitimate laggard: a loss/slowdown
// window can oversubscribe a shard's serial disk several-fold, leaving
// a backlog of hundreds of millions of cycles that drains only after
// the workload finishes — the drain and audit budgets must outlast it,
// or a merely-slow run reads as a hung one.
const (
	kvStallBudget = 250  // drive slices (400k cycles each) past the RTO horizon
	clStallBudget = 1000 // cluster slices (100k cycles each), same horizon
	kvDrainSlices = 2000 // ×400k = 800M cycles
	clDrainSlices = 8000 // ×100k = 800M cycles
	auditSlices   = 2000 // kvload audit, ×400k = 800M cycles
	clAuditSlices = 8000 // cluster audit, ×100k = 800M cycles
	settleSlices  = 3    // consecutive stable slices before drain exits
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

	// Kept worlds (Spec.KeepWorld): exactly one is non-nil.
	W  *dump.World        `json:"-"`
	CW *dump.ClusterWorld `json:"-"`
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
	if r.W != nil {
		r.W.Close()
		r.W = nil
	}
	if r.CW != nil {
		r.CW.Close()
		r.CW = nil
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
	if spec.Cfg.Machines > 0 {
		runCluster(spec, sched, r)
	} else {
		runKV(spec, sched, r)
	}
	return r, nil
}

// ---- kvload scenarios (solo and replicated) ----

func runKV(spec Spec, sched Schedule, r *Result) {
	cfg := spec.Cfg
	cfg.Chaos = sched.String()
	w := dump.Build(spec.Seed, cfg)
	if spec.KeepWorld {
		r.W = w
	} else {
		defer w.Close()
	}
	filled := w.Config()
	r.Scenario = filled.Scenario
	eng := w.Sys.Eng
	if spec.StopAt > 0 {
		eng.StopAtFired(spec.StopAt)
	}

	var failDump *dump.Dump
	w.C.OnFailStop(func(d *dump.Dump) { failDump = d })

	plane := &faultPlane{
		eng:   eng,
		nodes: []*store.Machine{w.Machine},
		keyAt: func(i int) string { return w.WL.Key(i % filled.Keys) },
	}
	a := newArmer(plane)
	a.arm(sched)

	// The acked-write ledger: the closed loop guarantees one
	// outstanding request per client, so the last request drawn is the
	// one the next response answers.
	pending := make([]store.KVRequest, filled.Clients)
	acked := make(map[string]uint64)
	w.TapReq = func(client int, m core.Msg) {
		if kr, ok := m.(store.KVRequest); ok {
			pending[client] = kr
		}
	}
	w.TapResp = func(client int, m core.Msg) {
		resp, ok := m.(store.KVResponse)
		if !ok || !resp.OK || pending[client].Op != store.WPut {
			return
		}
		if resp.Ver > acked[pending[client].Key] {
			acked[pending[client].Key] = resp.Ver
		}
	}

	var peakLag uint64
	sample := func() {
		for _, st := range w.KV.LifecycleReport() {
			if st.State == store.LifecycleQuorum && st.MaxLag > peakLag {
				peakLag = st.MaxLag
			}
		}
	}
	w.OnSlice = func(int) { sample() }
	w.StallBudget = kvStallBudget

	rep := w.Run()
	r.Stalled = rep.Stalled

	// Retire the fleet before the drain: the closed loop reschedules
	// forever, so a live fleet keeps pushing the quiescence horizon away.
	// The workload verdict is already in (rep); the invariants judge the
	// acked ledger, not further traffic. The stop instant is a function
	// of simulated state (the drive loop's own exit), so replays retire
	// the fleet at the identical event.
	if w.Pool != nil {
		w.Pool.Stop()
	}
	if w.RPool != nil {
		w.RPool.Stop()
	}

	// Drain: give detection its horizon and the disks their backlog —
	// run until the store's lifecycle leaves syncing AND every shard has
	// quiesced (bounded), sampling staleness throughout.
	slice := w.Sys.Cycles(0.0002)
	settled := 0
	for i := 0; i < kvDrainSlices && !eng.StopReached(); i++ {
		sample()
		if w.KV.Lifecycle() != store.LifecycleSyncing && quiesced(w.KV) {
			settled++
		} else {
			settled = 0
		}
		if settled >= settleSlices {
			break
		}
		w.Sys.RunFor(slice)
	}

	// Live audit on the serving store, then the platter audit for keys
	// whose shard fail-stopped.
	keys := detmap.Keys(acked)
	r.AuditKeys = len(keys)
	var liveLost, erred []string
	audited := false
	if !eng.StopReached() {
		w.Sys.Boot("chaos.audit", func(t *chanos.Thread) {
			for _, key := range keys {
				g := w.KV.Get(t, key)
				switch {
				case g.Err != "":
					erred = append(erred, key)
				case !g.Found || g.Ver < acked[key]:
					liveLost = append(liveLost, key)
				}
			}
			audited = true
		})
		for i := 0; i < auditSlices && !audited && !eng.StopReached(); i++ {
			w.Sys.RunFor(slice)
		}
	}

	r.EventCount = eng.Fired()
	r.EndCycles = eng.Now()
	r.Halted = eng.StopReached()
	r.FiredClauses = a.fired
	r.FlightKinds = a.kinds
	lc := w.KV.Lifecycle()
	r.Lifecycles = []string{lc}
	if r.Halted {
		return // frozen mid-flight: replay inspection, not judgement
	}

	// acked-loss.
	if len(liveLost) > 0 {
		r.violate(InvAckedLoss, "%d acked writes unreadable live (first %q)", len(liveLost), liveLost[0])
	}
	offline := erred
	if !audited {
		offline = keys // the live store never answered; judge the platters
	}
	if len(offline) > 0 {
		r.AuditOffline = len(offline)
		want := make(map[string]uint64, len(offline))
		for _, k := range offline {
			want[k] = acked[k]
		}
		if lost := offlineAudit(w.KV, filled.Cores, spec.Seed, want); lost > 0 {
			r.violate(InvAckedLoss, "%d acked writes missing from primary platters", lost)
		}
	}

	// client-hang. A stall or dead prefill against a loudly fail-stopped
	// machine is the fail-stop arm of the invariant, not a hang.
	loud := failstopped(lc, a.kinds, failDump != nil)
	if rep.Stalled && !loud {
		r.violate(InvClientHang, "fleet made no progress for %d slices", kvStallBudget)
	}
	if !rep.Filled && !loud {
		r.violate(InvClientHang, "prefill never completed")
	}
	if !audited {
		r.violate(InvClientHang, "live audit did not drain in %d slices", auditSlices)
	}
	if lc == store.LifecycleFailed {
		for _, sh := range w.KV.SnapshotShards() {
			if sh.Failed == "" {
				continue
			}
			if parked := sh.Waiters + sh.ReplWait + sh.ParkedReads + sh.ParkedReplGet; parked > 0 {
				r.violate(InvClientHang, "failed shard %d holds %d parked replies", sh.Shard, parked)
			}
		}
	}

	// staleness.
	if peakLag > StalenessCap {
		r.violate(InvStaleness, "armed attachment lag peaked at %d (cap %d)", peakLag, StalenessCap)
	}

	// failstop-or-heal.
	judgeLifecycle(r, 0, lc, a.kinds, failDump != nil)

	writeRedDump(spec, r, failDump, w.C, w.KV)
}

// ---- cluster scenarios ----

func runCluster(spec Spec, sched Schedule, r *Result) {
	cfg := spec.Cfg
	cfg.Chaos = sched.String()
	cw := dump.BuildCluster(spec.Seed, cfg)
	if spec.KeepWorld {
		r.CW = cw
	} else {
		defer cw.Close()
	}
	filled := cw.Config()
	r.Scenario = filled.Scenario
	cl := cw.Cl
	eng := cw.C.Eng
	if spec.StopAt > 0 {
		eng.StopAtFired(spec.StopAt)
	}

	var failDump *dump.Dump
	cw.C.OnFailStop(func(d *dump.Dump) { failDump = d })

	plane := &faultPlane{eng: eng, keyAt: func(i int) string {
		return cw.Keys()[i%len(cw.Keys())]
	}}
	for _, n := range cl.Nodes {
		plane.nodes = append(plane.nodes, n.Machine)
	}
	plane.tryMigrate = func(rangeIdx, dest int, onDone func(cluster.MigrationReport)) bool {
		return cl.TryMigrate(rangeIdx, dest, onDone)
	}
	a := newArmer(plane)
	a.arm(sched)

	var peakLag uint64
	sample := func() {
		for _, n := range cl.Nodes {
			for _, st := range n.KV.LifecycleReport() {
				if st.State == store.LifecycleQuorum && st.MaxLag > peakLag {
					peakLag = st.MaxLag
				}
			}
		}
	}
	cw.OnSlice = func(int) { sample() }
	cw.StallBudget = clStallBudget

	rep := cw.Run()
	r.Stalled = rep.Stalled

	// Retire the fleet before the drain (see runKV): without this the
	// closed loop writes forever and no store ever quiesces.
	if cw.Pool != nil {
		cw.Pool.Stop()
	}

	// Drain: every node's lifecycle out of syncing, every started
	// migration reported (done or aborted), and every store quiesced
	// (disk backlogs served, replica votes landed), within the budget.
	slice := sim.Time(100_000)
	settled := 0
	for i := 0; i < clDrainSlices && !eng.StopReached(); i++ {
		sample()
		stable := a.migPending() == 0
		for _, n := range cl.Nodes {
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
		cl.RunFor(slice)
	}

	// Live audit at each key's mapped owner (the e18 audit), then the
	// platter audit per failed node.
	acked := cw.Pool.AckedPuts
	keys := detmap.Keys(acked)
	r.AuditKeys = len(keys)
	fm := cl.Map(0)
	var liveLost []string
	erredByNode := make(map[int][]string)
	audited := false
	if !eng.StopReached() {
		cl.Nodes[0].RT.Boot("chaos.audit", func(t *core.Thread) {
			for _, key := range keys {
				owner := fm.NodeFor(key)
				g := cl.Nodes[owner].KV.Get(t, key)
				switch {
				case g.Err != "":
					erredByNode[owner] = append(erredByNode[owner], key)
				case !g.Found || g.Ver < acked[key]:
					liveLost = append(liveLost, key)
				}
			}
			audited = true
		})
		for i := 0; i < clAuditSlices && !audited && !eng.StopReached(); i++ {
			cl.RunFor(slice)
		}
	}

	r.EventCount = eng.Fired()
	r.EndCycles = eng.Now()
	r.Halted = eng.StopReached()
	r.FiredClauses = a.fired
	r.FlightKinds = a.kinds
	r.MigStarted = a.migStarted
	r.MigCompleted = len(a.migReports)
	for _, n := range cl.Nodes {
		r.Lifecycles = append(r.Lifecycles, n.KV.Lifecycle())
		r.ReplTolerated += n.KV.Counters().ReplTolerated
	}
	if r.Halted {
		return
	}

	// acked-loss.
	if len(liveLost) > 0 {
		r.violate(InvAckedLoss, "%d acked writes unreadable at their mapped owner (first %q)", len(liveLost), liveLost[0])
	}
	if !audited {
		// The live cluster never answered: judge every owner's platters.
		for _, key := range keys {
			owner := fm.NodeFor(key)
			erredByNode[owner] = append(erredByNode[owner], key)
		}
	}
	for node, keys := range detmap.Sorted(erredByNode) {
		r.AuditOffline += len(keys)
		want := make(map[string]uint64, len(keys))
		for _, k := range keys {
			want[k] = acked[k]
		}
		if lost := offlineAudit(cl.Nodes[node].KV, filled.Cores, spec.Seed+uint64(node), want); lost > 0 {
			r.violate(InvAckedLoss, "node %d: %d acked writes missing from primary platters", node, lost)
		}
	}

	// client-hang. Pool.Lost counts requests abandoned after bounded
	// retries — loud failures, not hangs, so they do not violate; and a
	// stall against a loudly fail-stopped node is the fail-stop arm of
	// the invariant, not a hang.
	loud := false
	for _, n := range cl.Nodes {
		if failstopped(n.KV.Lifecycle(), a.kinds, failDump != nil) {
			loud = true
		}
	}
	if rep.Stalled && !loud {
		r.violate(InvClientHang, "fleet made no progress for %d slices", clStallBudget)
	}
	if !rep.Filled && !loud {
		r.violate(InvClientHang, "prefill never completed")
	}
	if !audited {
		r.violate(InvClientHang, "live audit did not drain in %d slices", clAuditSlices)
	}
	for _, n := range cl.Nodes {
		if n.KV.Lifecycle() != store.LifecycleFailed {
			continue
		}
		for _, sh := range n.KV.SnapshotShards() {
			if sh.Failed == "" {
				continue
			}
			if parked := sh.Waiters + sh.ReplWait + sh.ParkedReads + sh.ParkedReplGet; parked > 0 {
				r.violate(InvClientHang, "node %d failed shard %d holds %d parked replies", n.ID, sh.Shard, parked)
			}
		}
	}

	// staleness.
	if peakLag > StalenessCap {
		r.violate(InvStaleness, "armed attachment lag peaked at %d (cap %d)", peakLag, StalenessCap)
	}

	// failstop-or-heal, per node.
	for _, n := range cl.Nodes {
		judgeLifecycle(r, n.ID, n.KV.Lifecycle(), a.kinds, failDump != nil)
	}

	writeRedDump(spec, r, failDump, cw.C, nil)
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
// phases, so the coordinate still lands exactly).
func writeRedDump(spec Spec, r *Result, failDump *dump.Dump, c *dump.Collector, kv *store.Store) {
	if !r.Red() {
		return
	}
	d := failDump
	if d == nil {
		d = c.Snapshot("chaos: " + strings.Join(r.Violations, ","))
	}
	path := filepath.Join(spec.DumpDir, d.FileName())
	if err := dump.WriteFile(path, d, kv); err != nil {
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
