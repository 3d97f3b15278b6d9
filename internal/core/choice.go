package core

// Case is one alternative in a Choose: receive from or send to a channel.
// This is the paper's `choose { option r <- c: ... }` construct; in
// "environments with blocking send, choice typically allows options that
// send as well as options that receive" (§3), and ours does.
type Case struct {
	Ch  *Chan
	Dir Dir
	Val Msg // payload for SendDir cases
}

// choiceRec marks a pending multi-channel wait. When any registered case
// fires, done flips and every other registration becomes dead.
type choiceRec struct {
	done bool
}

// Choose blocks until one of the cases can proceed, executes it, and
// returns its index. For receive cases v/ok carry the received value; for
// send cases the value has been sent when Choose returns.
func (t *Thread) Choose(cases ...Case) (idx int, v Msg, ok bool) {
	if len(cases) == 0 {
		panic("core: Choose with no cases")
	}
	r := t.do(op{kind: opChoose, cases: cases})
	return r.idx, r.val, r.ok
}

// RecvTimeout receives from c with a timeout of d cycles. timedOut is true
// if the timer fired first.
func (t *Thread) RecvTimeout(c *Chan, d uint64) (v Msg, ok bool, timedOut bool) {
	timer := t.rt.After(d)
	idx, v, ok := t.Choose(Case{Ch: c, Dir: RecvDir}, Case{Ch: timer, Dir: RecvDir})
	if idx == 1 {
		return nil, false, true
	}
	return v, ok, false
}

// opChoose processes a choice op: charge setup cost, then evaluate.
func (rt *Runtime) opChoose(t *Thread, o op) {
	rt.stats.Chooses++
	setup := chooseSetup + uint64(len(o.cases))*chooseCase
	_, end := rt.M.Core(t.core).Reserve(rt.Eng.Now(), setup)
	rt.Eng.At(end, func() { rt.evalChoice(t, o) })
}

// evalChoice picks among ready cases or parks the thread per the
// configured implementation strategy.
func (rt *Runtime) evalChoice(t *Thread, o op) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	var ready []int
	for i, cs := range o.cases {
		if cs.Ch == nil {
			panic("core: Choose case with nil channel")
		}
		var ok bool
		if cs.Dir == RecvDir {
			ok = cs.Ch.recvReady()
		} else {
			ok = cs.Ch.sendReady()
		}
		if ok {
			ready = append(ready, i)
		}
	}
	if len(ready) > 0 {
		pick := ready[rt.rng.Intn(len(ready))]
		rt.execCase(t, o.cases[pick], pick)
		return
	}
	switch rt.Cfg.Choose {
	case ChooseWaiters:
		rec := &choiceRec{}
		for i, cs := range o.cases {
			w := t.newWait()
			w.choice, w.idx = rec, i
			if cs.Dir == RecvDir {
				cs.Ch.rt.waitArrays.Push(&cs.Ch.recvq, w.ref())
			} else {
				w.val = cs.Val
				cs.Ch.rt.waitArrays.Push(&cs.Ch.sendq, w.ref())
			}
		}
		t.state = tBlocked
		rt.releaseCore(t)
	case ChoosePoll:
		// Busy-poll: re-check every pollInterval, charging poll cost on
		// the thread's core each round — the "wasted cycles" strategy.
		t.state = tBlocked
		rt.releaseCore(t)
		var poll func()
		poll = func() {
			if t.state == tDead {
				return
			}
			rt.stats.ChoosePolls++
			cost := pollCost * uint64(len(o.cases))
			_, end := rt.M.Core(t.core).Reserve(rt.Eng.Now(), cost)
			t.wake = rt.Eng.At(end, func() {
				if t.state == tDead {
					return
				}
				anyReady := false
				for _, cs := range o.cases {
					if cs.Dir == RecvDir && cs.Ch.recvReady() ||
						cs.Dir == SendDir && cs.Ch.sendReady() {
						anyReady = true
						break
					}
				}
				if anyReady {
					// Reclaim the core, then re-evaluate as if freshly
					// charged.
					t.pending = opResult{}
					t.state = tReady
					rt.rePoll(t, o)
					return
				}
				t.wake = rt.Eng.At(rt.Eng.Now()+pollInterval, poll)
			})
		}
		t.wake = rt.Eng.At(rt.Eng.Now()+pollInterval, poll)
	default:
		panic("core: unknown choose implementation")
	}
}

// rePoll re-runs a polled choice once readiness was observed. The thread
// must win its core back first; dispatch handles queueing.
func (rt *Runtime) rePoll(t *Thread, o op) {
	cs := rt.cores[t.core]
	t.state = tBlocked
	// Queue a resumption that re-executes the choice evaluation.
	rt.Eng.At(rt.Eng.Now(), func() {
		if t.state == tDead {
			return
		}
		_ = cs
		rt.evalChoiceOnCore(t, o)
	})
}

// evalChoiceOnCore claims the thread's core and evaluates the choice
// again (poll path only).
func (rt *Runtime) evalChoiceOnCore(t *Thread, o op) {
	cs := rt.cores[t.core]
	if cs.cur != nil && cs.cur != t {
		// Core busy: retry when it frees — rare; just poll again shortly.
		t.wake = rt.Eng.At(rt.Eng.Now()+pollInterval, func() { rt.evalChoiceOnCore(t, o) })
		return
	}
	if cs.cur == nil {
		cs.cur = t
	}
	t.state = tRunning
	rt.evalChoice(t, o)
}

// execCase runs the chosen ready case for t, which owns its core.
func (rt *Runtime) execCase(t *Thread, cs Case, idx int) {
	now := rt.Eng.Now()
	if cs.Dir == RecvDir {
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.MsgRecvCost)
		rt.recvAt(t, end, cs.Ch, idx)
		return
	}
	// Send case.
	if cs.Ch.closed {
		rt.releaseCore(t)
		rt.killThread(t, ErrSendClosed)
		return
	}
	v := cs.Val
	bytes := rt.msgBytes(v)
	var copyCost uint64
	if rt.Cfg.Strict {
		v = deepCopy(v)
		copyCost = uint64(bytes) >> copyShift
		rt.stats.BytesCopied += uint64(bytes)
	}
	senderCycles, _ := rt.M.MsgCost(t.core, t.core, bytes)
	_, end := rt.M.Core(t.core).Reserve(now, senderCycles+copyCost)
	rt.stats.Sends++
	rt.stats.BytesSent += uint64(bytes)
	cs.Ch.Sends++
	rt.sendAt(t, end, cs.Ch, v, bytes, idx)
}
