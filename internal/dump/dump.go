// Package dump implements machine core dumps with deterministic
// time-travel reproduction. A Dump is every serving machine of a
// simulated world, one entry each — every core's run queue, every parked
// thread, NIC rings, netstack connection tables, store shard indexes and
// caches, log-device platter contents, replica stores, the telemetry
// snapshot and per-shard flight-recorder rings — captured between engine
// events and stamped with the (seed, config, event-count) triple.
// Because the simulation is deterministic, that triple is a complete
// reproduction recipe: re-run the same scenario from the same seed and
// halt after the same number of fired events, and every machine is
// back in the dumped state, one event away from the failure.
//
// Dumps are written automatically on invariant failures and shard
// fail-stops (see Collector.OnFailStop), on demand from CLIs and tests,
// and replayed with `chanos-sim -replay <dump>` (see Replay). The
// `chanos-dump` command inspects, validates and structurally diffs them.
package dump

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/store"
	"chanos/internal/telemetry"
)

// Version is the dump schema version. Policy: adding fields (new
// sections, new omitempty leaves) keeps the version; removing or
// renaming fields, changing the meaning of EventCount, or changing
// which config knobs shape the event sequence, bumps it. Version 2
// added the cluster topology: Config.Machines/RF select an N-machine
// scenario whose event sequence a v1 build cannot reproduce, and the
// Machines section carries every node's full capture. Version 3 added
// Config.Chaos: a serialized fault schedule (internal/chaos) whose
// triggers are part of the event sequence, so a v2 build cannot
// reproduce a chaos dump. Version 4 made Machines the only machine
// capture: a single-machine dump is one entry, each entry carries its
// own telemetry snapshot, and the top-level cores, threads, nic, net,
// store, replica and telemetry sections are gone — removed fields, so
// a v3 reader would see an empty machine. Decode refuses dumps from a
// newer schema than it understands.
const Version = 4

// Config is the scenario recipe half of a dump's reproduction triple.
// Every knob that shapes the event sequence must be here — anything
// left out cannot be replayed.
type Config struct {
	Scenario     string  `json:"scenario"`
	Cores        int     `json:"cores"`
	Shards       int     `json:"shards"` // 0 = store default
	Clients      int     `json:"clients"`
	Requests     int     `json:"requests"`
	ReadPct      int     `json:"read_pct"`
	Keys         int     `json:"keys"`
	ValBytes     int     `json:"val_bytes"`
	LogBlocks    int     `json:"log_blocks"` // 0 = store default
	Replicas     int     `json:"replicas"`
	ReplicaReads bool    `json:"replica_reads,omitempty"`
	Loss         float64 `json:"loss,omitempty"`
	// FailWrites arms the injected fault: after prefill, the next
	// FailWrites write completions on FailShard's log device fail.
	FailWrites int `json:"fail_writes,omitempty"`
	FailShard  int `json:"fail_shard,omitempty"`
	// Machines and RF size the cluster scenario: Machines serving
	// nodes, each with RF replica machines, routed by a shard map
	// (internal/cluster). Scenario alone selects the world; an empty
	// Scenario with Machines > 0 fills to cluster (see Shape).
	Machines int `json:"machines,omitempty"`
	RF       int `json:"rf,omitempty"`
	// Chaos is a serialized fault schedule (internal/chaos grammar:
	// `trigger:arg:fault:args...` clauses joined by `;`). Its triggers
	// and injections are engine events, so the schedule is part of the
	// event sequence and rides the dump — a red chaos seed replays
	// through chaos.Replay with the identical fault timeline. Empty =
	// no schedule (every pre-chaos dump).
	Chaos string `json:"chaos,omitempty"`
}

// Dump is one whole-machine core dump.
type Dump struct {
	Version int    `json:"version"`
	Reason  string `json:"reason"`
	Seed    uint64 `json:"seed"`
	Config  Config `json:"config"`

	// EventCount is the dump's position on the engine's deterministic
	// clock: the number of events fired when the capture ran, between
	// events. Replaying the same seed+config with StopAtFired(EventCount)
	// halts the engine in exactly this state.
	EventCount uint64   `json:"event_count"`
	AtCycles   sim.Time `json:"at_cycles"`

	// Machines is the capture: one entry per serving machine (one for
	// a kvload dump, Config.Machines for a cluster), each holding the
	// machine's whole state plus its replica machines' store shards.
	Machines []MachineDump `json:"machines"`
}

// MachineDump is one serving machine's capture: its scheduler, NIC,
// netstack and store state, its replica machines' store shards (attach
// order), the shard-map version it had installed (cluster nodes; 0
// otherwise) and its statd fold. Telemetry's Seq is normalised to 0:
// host-side scrapes bump the sequence number without touching the
// machine, so it is presentation state, not machine state.
type MachineDump struct {
	Node       int                      `json:"node"`
	MapVersion uint64                   `json:"map_version"`
	Cores      []core.CoreSched         `json:"cores"`
	Threads    []core.ThreadSnapshot    `json:"threads"`
	NIC        []machine.NICQueueState  `json:"nic"`
	Net        []net.StackShardSnapshot `json:"net"`
	Store      []store.ShardSnapshot    `json:"store"`
	Replicas   [][]store.ShardSnapshot  `json:"replicas,omitempty"`
	Telemetry  *telemetry.Snapshot      `json:"telemetry,omitempty"`
}

// Validate structurally checks a dump: schema version, the reproduction
// triple, one capture per serving machine of the world its config
// selects (Config.Shape), and in every capture the sections a serving
// machine must have — scheduler, NIC, netstack, store shards with their
// log-device geometry, the configured replica count and a telemetry
// snapshot. Returns a list of problems (empty = valid).
func (d *Dump) Validate() []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if d.Version != Version {
		add("version %d (want %d)", d.Version, Version)
	}
	if d.Config.Scenario == "" {
		add("config.scenario empty: dump is not replayable")
	}
	if d.EventCount == 0 {
		add("event_count 0: no replay coordinate")
	}
	if err := d.Config.Check(); err != nil {
		add("config: %v", err)
	}
	_, machines, rf := d.Config.Shape()
	if len(d.Machines) != machines {
		add("config has %d machines but machines section has %d", machines, len(d.Machines))
	}
	for _, m := range d.Machines {
		if len(m.Cores) == 0 || len(m.Threads) == 0 {
			add("machine %d: scheduler sections empty", m.Node)
		}
		if len(m.NIC) == 0 {
			add("machine %d: nic section empty", m.Node)
		}
		if len(m.Net) == 0 {
			add("machine %d: net section empty", m.Node)
		}
		if len(m.Store) == 0 {
			add("machine %d: store section empty", m.Node)
		}
		for _, sh := range m.Store {
			if sh.Disk.NumBlocks == 0 || sh.Disk.BlockSize == 0 {
				add("machine %d: store shard %d: no log-device geometry (shard never booted?)", m.Node, sh.Shard)
			}
		}
		if rf > 0 && len(m.Replicas) != rf {
			add("machine %d: config has rf %d but %d replica captures", m.Node, rf, len(m.Replicas))
		}
		if m.Telemetry == nil {
			add("machine %d: telemetry section missing", m.Node)
		} else if len(m.Telemetry.Services) == 0 {
			add("machine %d: telemetry snapshot has no services", m.Node)
		}
	}
	return bad
}

// Encode renders the dump as deterministic JSON: every section is built
// from sorted slices (never map iteration), so the same machine state
// always yields the same bytes. That makes byte equality a valid
// state-equality test — the determinism and differential test levels
// depend on it.
func (d *Dump) Encode() []byte {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		// Every field is a plain value; marshal cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// Decode parses a dump, refusing schema versions newer than this build
// understands (older-but-same-major dumps decode fine: the schema only
// grows within a version).
func Decode(b []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("dump: decode: %w", err)
	}
	if d.Version > Version {
		return nil, fmt.Errorf("dump: schema version %d is newer than supported %d", d.Version, Version)
	}
	return &d, nil
}

// Equal reports whether two dumps describe byte-identical machine
// state. Encode is deterministic, so this is exact.
func Equal(a, b *Dump) bool { return bytes.Equal(a.Encode(), b.Encode()) }

// maxDiffLines caps Diff output; beyond it, one summary line reports
// how much was suppressed.
const maxDiffLines = 50

// Diff structurally compares two dumps and returns human-readable
// difference lines ("store[1].counters.Gets: 512 != 511"), empty when
// identical. Numbers compare exactly (no float64 round-trip).
func Diff(a, b *Dump) []string {
	ja, jb := decodeTree(a.Encode()), decodeTree(b.Encode())
	var out []string
	extra := 0
	diffWalk("", ja, jb, &out, &extra)
	if extra > 0 {
		out = append(out, fmt.Sprintf("... and %d more differences", extra))
	}
	return out
}

// decodeTree parses deterministic dump JSON into a generic tree with
// exact numbers (json.Number, not float64 — uint64 counters must not
// lose low bits to float rounding).
func decodeTree(b []byte) any {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(err) // Encode output is always valid JSON.
	}
	return v
}

func diffEmit(out *[]string, extra *int, format string, args ...any) {
	if len(*out) >= maxDiffLines {
		*extra++
		return
	}
	*out = append(*out, fmt.Sprintf(format, args...))
}

func diffWalk(path string, a, b any, out *[]string, extra *int) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			diffEmit(out, extra, "%s: object != %T", path, b)
			return
		}
		keys := detmap.Keys(av)
		for _, k := range detmap.Keys(bv) {
			if _, dup := av[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := path + "." + k
			if path == "" {
				p = k
			}
			va, inA := av[k]
			vb, inB := bv[k]
			switch {
			case !inA:
				diffEmit(out, extra, "%s: only in second dump (%v)", p, vb)
			case !inB:
				diffEmit(out, extra, "%s: only in first dump (%v)", p, va)
			default:
				diffWalk(p, va, vb, out, extra)
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			diffEmit(out, extra, "%s: array != %T", path, b)
			return
		}
		if len(av) != len(bv) {
			diffEmit(out, extra, "%s: length %d != %d", path, len(av), len(bv))
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			diffWalk(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], out, extra)
		}
	default:
		if a != b {
			diffEmit(out, extra, "%s: %v != %v", path, a, b)
		}
	}
}

// FileName is the canonical dump file name: the reproduction triple is
// readable before the file is opened. All dump files end ".dump.json"
// (CI collects that glob as a failure artifact).
func (d *Dump) FileName() string {
	return fmt.Sprintf("chanos-%s-seed%d-ev%d.dump.json", d.Config.Scenario, d.Seed, d.EventCount)
}

// ReplayCommand is the one-command reproduction line printed next to
// every dump: run it and the machine halts just before the failing
// instant.
func ReplayCommand(path string) string {
	return fmt.Sprintf("go run ./cmd/chanos-sim -replay %s", path)
}

// WriteFile encodes the dump to path.
func WriteFile(path string, d *Dump) error {
	if err := os.WriteFile(path, d.Encode(), 0o644); err != nil {
		return fmt.Errorf("dump: write %s: %w", path, err)
	}
	return nil
}

// ReadFile loads and decodes a dump.
func ReadFile(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dump: read: %w", err)
	}
	return Decode(b)
}
