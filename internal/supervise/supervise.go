// Package supervise implements Erlang-style supervision trees over the
// runtime's monitors. The paper holds up the AXD301's nine
// nines as evidence that "it may be feasible to aim for not failing"
// (§5): instead of making the kernel fail-stop, components are restarted
// by supervisors when they die. Experiment E7 measures the availability
// this buys under fault injection.
package supervise

import (
	"errors"
	"fmt"
	"math"

	"chanos/internal/core"
	"chanos/internal/sim"
)

// Strategy is the restart strategy, following OTP.
type Strategy int

// Restart strategies.
const (
	// OneForOne restarts only the crashed child.
	OneForOne Strategy = iota
	// OneForAll kills and restarts every child when one crashes.
	OneForAll
	// RestForOne restarts the crashed child and all children started
	// after it.
	RestForOne
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case OneForOne:
		return "one-for-one"
	case OneForAll:
		return "one-for-all"
	case RestForOne:
		return "rest-for-one"
	default:
		return "unknown"
	}
}

// ErrRestartIntensity is the supervisor's own exit reason when children
// crash faster than the restart budget allows.
var ErrRestartIntensity = errors.New("supervise: restart intensity exceeded")

// ChildSpec describes one supervised child.
type ChildSpec struct {
	Name  string
	Start func(t *core.Thread)
	Opts  []core.SpawnOpt
}

// Config bounds restart behaviour.
type Config struct {
	Strategy Strategy
	// MaxRestarts within Window cycles before the supervisor gives up
	// (default 5 restarts per simulated second).
	MaxRestarts int
	Window      uint64
}

// Supervisor restarts its children according to the strategy. It is
// itself a thread, so supervisors can supervise supervisors.
type Supervisor struct {
	rt   *core.Runtime
	cfg  Config
	self *core.Thread
	ctl  *core.Chan

	// Restarts counts child restarts performed.
	Restarts uint64
	// GaveUp reports whether the restart budget was exhausted.
	GaveUp bool
}

type childState struct {
	spec    ChildSpec
	thread  *core.Thread
	stopped bool // deliberately stopped; don't restart
}

type ctlMsg struct {
	stop bool
}

// Spawn starts a supervisor thread managing the given children.
func Spawn(parent *core.Thread, name string, cfg Config, specs []ChildSpec, opts ...core.SpawnOpt) *Supervisor {
	rt := parent.Runtime()
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 5
	}
	if cfg.Window == 0 {
		cfg.Window = 2_000_000_000
	}
	s := &Supervisor{rt: rt, cfg: cfg}
	s.ctl = rt.NewChan(name+".ctl", 4)
	s.self = parent.Spawn(name, func(t *core.Thread) { s.run(t, specs) }, opts...)
	return s
}

// Stop asks the supervisor to take down its children and exit.
func (s *Supervisor) Stop(t *core.Thread) {
	s.ctl.Send(t, ctlMsg{stop: true})
}

func (s *Supervisor) run(t *core.Thread, specs []ChildSpec) {
	notify := t.NewChan("sup.notify", 64)
	children := make([]*childState, len(specs))
	for i, sp := range specs {
		children[i] = &childState{spec: sp}
		s.startChild(t, children[i], notify)
	}
	var restartTimes []sim.Time

	for {
		idx, v, ok := t.Choose(
			core.Case{Ch: notify, Dir: core.RecvDir},
			core.Case{Ch: s.ctl, Dir: core.RecvDir},
		)
		if !ok {
			return
		}
		if idx == 1 {
			msg := v.(ctlMsg)
			if msg.stop {
				for _, c := range children {
					c.stopped = true
					if c.thread != nil && !c.thread.Dead() {
						t.Kill(c.thread)
					}
				}
				return
			}
			continue
		}

		n := v.(core.ExitNotice)
		c := s.findChild(children, n.TID)
		if c == nil || c.stopped {
			continue
		}
		if !n.Abnorm {
			c.thread = nil // normal completion: transient child, done
			continue
		}

		// Restart-intensity accounting over a sliding window.
		now := t.Now()
		restartTimes = append(restartTimes, now)
		cut := 0
		for cut < len(restartTimes) && now-restartTimes[cut] > s.cfg.Window {
			cut++
		}
		restartTimes = restartTimes[cut:]
		if len(restartTimes) > s.cfg.MaxRestarts {
			s.GaveUp = true
			for _, cc := range children {
				cc.stopped = true
				if cc.thread != nil && !cc.thread.Dead() {
					t.Kill(cc.thread)
				}
			}
			t.Fail(fmt.Errorf("%w: %d restarts in window", ErrRestartIntensity, len(restartTimes)))
		}

		switch s.cfg.Strategy {
		case OneForOne:
			s.restartChild(t, c, notify)
		case OneForAll:
			for _, cc := range children {
				if cc != c && cc.thread != nil && !cc.thread.Dead() {
					t.Kill(cc.thread)
				}
			}
			for _, cc := range children {
				if !cc.stopped {
					s.restartChild(t, cc, notify)
				}
			}
		case RestForOne:
			from := s.childIndex(children, c)
			for i := from + 1; i < len(children); i++ {
				if children[i].thread != nil && !children[i].thread.Dead() {
					t.Kill(children[i].thread)
				}
			}
			for i := from; i < len(children); i++ {
				if !children[i].stopped {
					s.restartChild(t, children[i], notify)
				}
			}
		}
	}
}

func (s *Supervisor) startChild(t *core.Thread, c *childState, notify *core.Chan) {
	c.thread = t.Spawn(c.spec.Name, c.spec.Start, c.spec.Opts...)
	t.Monitor(c.thread, notify)
}

func (s *Supervisor) restartChild(t *core.Thread, c *childState, notify *core.Chan) {
	s.startChild(t, c, notify)
	s.Restarts++
}

func (s *Supervisor) findChild(children []*childState, tid int) *childState {
	for _, c := range children {
		if c.thread != nil && c.thread.ID() == tid {
			return c
		}
	}
	return nil
}

func (s *Supervisor) childIndex(children []*childState, c *childState) int {
	for i, cc := range children {
		if cc == c {
			return i
		}
	}
	return -1
}

// Uptime tracks service availability over virtual time.
type Uptime struct {
	downSince sim.Time
	isDown    bool
	downTotal sim.Time
	started   sim.Time
}

// NewUptime begins accounting at time `at`.
func NewUptime(at sim.Time) *Uptime { return &Uptime{started: at} }

// Down marks the service down at time `at` (idempotent).
func (u *Uptime) Down(at sim.Time) {
	if !u.isDown {
		u.isDown = true
		u.downSince = at
	}
}

// Up marks the service back up at time `at` (idempotent).
func (u *Uptime) Up(at sim.Time) {
	if u.isDown {
		u.isDown = false
		u.downTotal += at - u.downSince
	}
}

// DownTime returns accumulated downtime as of time `at`.
func (u *Uptime) DownTime(at sim.Time) sim.Time {
	d := u.downTotal
	if u.isDown && at > u.downSince {
		d += at - u.downSince
	}
	return d
}

// Availability returns the availability fraction over [started, at].
func (u *Uptime) Availability(at sim.Time) float64 {
	total := at - u.started
	if total == 0 {
		return 1
	}
	return 1 - float64(u.DownTime(at))/float64(total)
}

// Nines converts availability to "number of nines" (9.0 caps the scale:
// zero observed downtime is reported as 9 nines, the AXD301 figure).
func (u *Uptime) Nines(at sim.Time) float64 {
	a := u.Availability(at)
	if a >= 1 {
		return 9
	}
	n := -math.Log10(1 - a)
	if n > 9 {
		n = 9
	}
	return n
}
