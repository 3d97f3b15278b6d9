package core

import "sort"

// ThreadSnapshot is one live thread's scheduler-visible state, as
// captured into a machine core dump. Dead threads are omitted: a dump
// is the machine as it stands, not its history (the flight recorders
// carry recent history).
type ThreadSnapshot struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Core   int    `json:"core"`
	State  string `json:"state"` // ready | running | blocked
	Parked bool   `json:"parked,omitempty"`
}

// CoreSched is one core's run state: the thread owning it, its run
// queue (thread ids in queue order), and placement bookkeeping.
type CoreSched struct {
	Core     int   `json:"core"`
	Running  int   `json:"running"` // thread id, -1 when the core is free
	RunQueue []int `json:"runq,omitempty"`
	Assigned int   `json:"assigned"`
	Idle     bool  `json:"idle,omitempty"`
}

// SnapshotSched captures every core's run queue and every live
// thread, deterministically ordered (cores by id, threads by id).
// Read-only: safe from host or engine context between events.
func (rt *Runtime) SnapshotSched() ([]CoreSched, []ThreadSnapshot) {
	cores := make([]CoreSched, len(rt.cores))
	for i, cs := range rt.cores {
		c := CoreSched{Core: i, Running: -1, Assigned: cs.assigned, Idle: cs.idle}
		if cs.cur != nil {
			c.Running = cs.cur.id
		}
		for _, t := range cs.runq.Live() {
			c.RunQueue = append(c.RunQueue, t.id)
		}
		cores[i] = c
	}
	ids := make([]int, 0, len(rt.threads))
	for id, t := range rt.threads {
		if t.state != tDead {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	threads := make([]ThreadSnapshot, 0, len(ids))
	for _, id := range ids {
		t := rt.threads[id]
		st := "ready"
		switch t.state {
		case tRunning:
			st = "running"
		case tBlocked:
			st = "blocked"
		}
		threads = append(threads, ThreadSnapshot{
			ID: t.id, Name: t.name, Core: t.core, State: st, Parked: t.parked,
		})
	}
	return cores, threads
}
