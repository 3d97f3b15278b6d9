package machine

import (
	"testing"
	"testing/quick"

	"chanos/internal/sim"
)

func newTestMachine(cores int) *Machine {
	return New(sim.NewEngine(), DefaultParams(cores))
}

func TestMeshLayout(t *testing.T) {
	m := newTestMachine(16)
	if m.NumCores() != 16 {
		t.Fatalf("NumCores = %d, want 16", m.NumCores())
	}
	// 16 cores -> 4x4 mesh.
	c := m.Core(5)
	if c.X != 1 || c.Y != 1 {
		t.Fatalf("core 5 at (%d,%d), want (1,1)", c.X, c.Y)
	}
	if d := m.Dist(0, 15); d != 6 {
		t.Fatalf("Dist(0,15) = %d, want 6 (corner to corner of 4x4)", d)
	}
	if d := m.Dist(3, 3); d != 0 {
		t.Fatalf("Dist(3,3) = %d, want 0", d)
	}
}

func TestMeshWidthNonSquare(t *testing.T) {
	m := newTestMachine(5) // width 3
	if m.Core(4).X != 1 || m.Core(4).Y != 1 {
		t.Fatalf("core 4 at (%d,%d), want (1,1)", m.Core(4).X, m.Core(4).Y)
	}
}

func TestDistSymmetricProperty(t *testing.T) {
	m := newTestMachine(64)
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return m.Dist(x, y) == m.Dist(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistTriangleProperty(t *testing.T) {
	m := newTestMachine(64)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		return m.Dist(x, z) <= m.Dist(x, y)+m.Dist(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgCostLocalVsRemote(t *testing.T) {
	m := newTestMachine(64)
	sLocal, tLocal := m.MsgCost(3, 3, 64)
	sRemote, tRemote := m.MsgCost(0, 63, 64)
	if tLocal != 0 {
		t.Fatalf("local transit = %d, want 0", tLocal)
	}
	if sLocal != sRemote {
		t.Fatalf("sender cost should not depend on destination: %d vs %d", sLocal, sRemote)
	}
	if tRemote == 0 {
		t.Fatal("remote transit should be positive")
	}
	// Transit grows with distance.
	_, tNear := m.MsgCost(0, 1, 64)
	if tRemote <= tNear {
		t.Fatalf("far transit %d should exceed near transit %d", tRemote, tNear)
	}
}

func TestMsgCostPayloadScaling(t *testing.T) {
	m := newTestMachine(4)
	sSmall, _ := m.MsgCost(0, 1, 8)
	sBig, _ := m.MsgCost(0, 1, 4096)
	if sBig-sSmall != (4096-8)>>m.P.MsgPerByteShift {
		t.Fatalf("payload cost wrong: small=%d big=%d", sSmall, sBig)
	}
}

func TestCoreReserveQueues(t *testing.T) {
	m := newTestMachine(1)
	c := m.Core(0)
	s1, e1 := c.Reserve(100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first reservation [%d,%d], want [100,150]", s1, e1)
	}
	// Second request at an earlier time queues behind the first.
	s2, e2 := c.Reserve(120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("second reservation [%d,%d], want [150,180]", s2, e2)
	}
	if c.BusyCycles != 80 {
		t.Fatalf("BusyCycles = %d, want 80", c.BusyCycles)
	}
}

func TestCoreReserveIdleGap(t *testing.T) {
	m := newTestMachine(1)
	c := m.Core(0)
	c.Reserve(0, 10)
	s, e := c.Reserve(1000, 5)
	if s != 1000 || e != 1005 {
		t.Fatalf("reservation after idle gap [%d,%d], want [1000,1005]", s, e)
	}
}

func TestUtilization(t *testing.T) {
	m := newTestMachine(1)
	c := m.Core(0)
	c.Reserve(0, 500)
	if u := c.Utilization(1000); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := c.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", u)
	}
}

func TestLineOwnershipCosts(t *testing.T) {
	m := newTestMachine(16)
	l := m.NewLine()

	// First exclusive acquire: no previous owner.
	c0 := l.AcquireExclusive(0)
	if c0 == 0 {
		t.Fatal("first acquire should cost something")
	}
	// Re-acquire by owner is an L1 hit.
	if c := l.AcquireExclusive(0); c != m.P.L1 {
		t.Fatalf("owner re-acquire = %d, want L1 %d", c, m.P.L1)
	}
	// Acquire by another core costs a transfer and moves ownership.
	c1 := l.AcquireExclusive(5)
	if c1 < m.P.LineTransfer {
		t.Fatalf("remote acquire = %d, want >= %d", c1, m.P.LineTransfer)
	}
	if c := l.AcquireExclusive(5); c != m.P.L1 {
		t.Fatalf("new owner's re-acquire = %d, want L1 %d: ownership did not move", c, m.P.L1)
	}
}

func TestLineSharerInvalidation(t *testing.T) {
	m := newTestMachine(16)
	l := m.NewLine()
	l.AcquireExclusive(0)
	// Build up a sharer set.
	for i := 1; i < 9; i++ {
		l.AcquireShared(i)
	}
	if len(l.sharers) == 0 {
		t.Fatal("no sharers recorded")
	}
	base := m.NewLine()
	base.AcquireExclusive(0)
	costNoSharers := base.AcquireExclusive(1)
	costSharers := l.AcquireExclusive(1)
	if costSharers <= costNoSharers {
		t.Fatalf("invalidating sharers should cost more: %d vs %d", costSharers, costNoSharers)
	}
	if len(l.sharers) != 0 {
		t.Fatalf("sharers not cleared after exclusive acquire: %d", len(l.sharers))
	}
}

func TestLineSharedReadOfOwnLine(t *testing.T) {
	m := newTestMachine(4)
	l := m.NewLine()
	l.AcquireExclusive(2)
	if c := l.AcquireShared(2); c != m.P.L1 {
		t.Fatalf("read of own line = %d, want L1", c)
	}
}

func TestLineInvalidationCap(t *testing.T) {
	p := DefaultParams(64)
	p.MaxInvSharer = 4
	m := New(sim.NewEngine(), p)
	if c := m.LineTransferCost(0, 1, 100); c != m.LineTransferCost(0, 1, 4) {
		t.Fatalf("sharer cap not applied: %d", c)
	}
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	m := newTestMachine(1)
	if s := m.Seconds(m.Cycles(1.5)); s < 1.499 || s > 1.501 {
		t.Fatalf("Seconds(Cycles(1.5)) = %v", s)
	}
}

func TestCoreOutOfRangePanics(t *testing.T) {
	m := newTestMachine(4)
	defer func() {
		if recover() == nil {
			t.Error("Core(99) did not panic")
		}
	}()
	m.Core(99)
}
