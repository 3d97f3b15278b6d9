package machine

import (
	"testing"

	"chanos/internal/sim"
)

// TestNICTxSerialises: frames on one TX queue leave the machine in FIFO
// order, separated by their serialisation cost; distinct queues do not
// contend.
func TestNICTxSerialises(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultParams(4))
	nic := NewNIC(m, NICParams{Queues: 2, FrameBase: 100, CyclesPerByte: 1})
	var wireAt []sim.Time
	var queues []int
	nic.OnTransmit(func(f Frame) {
		wireAt = append(wireAt, eng.Now())
		queues = append(queues, f.Queue)
	})
	nic.Transmit(Frame{Queue: 0, Bytes: 100}) // 200 cycles
	nic.Transmit(Frame{Queue: 0, Bytes: 100}) // queues behind: 400
	nic.Transmit(Frame{Queue: 1, Bytes: 100}) // independent: 200
	eng.Run()
	if len(wireAt) != 3 {
		t.Fatalf("wire saw %d frames, want 3", len(wireAt))
	}
	// Events at t=200 (q0 #1 and q1 #1) then t=400 (q0 #2).
	if wireAt[0] != 200 || wireAt[1] != 200 || wireAt[2] != 400 {
		t.Fatalf("serialisation times %v, want [200 200 400]", wireAt)
	}
	if queues[2] != 0 {
		t.Fatalf("late frame came from queue %d, want 0", queues[2])
	}
	if nic.Counters().TxFrames != 3 || nic.Counters().TxBytes != 300 {
		t.Fatalf("tx stats: %d frames, %d bytes", nic.Counters().TxFrames, nic.Counters().TxBytes)
	}
}

// TestNICRxOverflowDrops: a stack that never returns descriptors caps
// in-flight frames at the ring depth; the excess dies at the device.
func TestNICRxOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultParams(4))
	nic := NewNIC(m, NICParams{Queues: 1, RxQueueDepth: 4})
	delivered := 0
	nic.OnReceive(func(queue int, f Frame) { delivered++ }) // no RxDone
	for i := 0; i < 10; i++ {
		nic.Arrive(Frame{Queue: 0, Bytes: 64})
	}
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d frames, want 4 (ring depth)", delivered)
	}
	if nic.Counters().RxDrops != 6 {
		t.Fatalf("dropped %d frames, want 6", nic.Counters().RxDrops)
	}
	if occ := nic.SnapshotQueues()[0].RxOccupancy; occ != 4 {
		t.Fatalf("occupancy %d, want 4", occ)
	}
	// Returning descriptors reopens the ring.
	nic.RxDone(0)
	nic.Arrive(Frame{Queue: 0, Bytes: 64})
	eng.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d after RxDone, want 5", delivered)
	}
}

// TestNICRSSStable: the RSS hash is deterministic and spreads keys.
func TestNICRSSStable(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultParams(8))
	nic := NewNIC(m, NICParams{}) // queues default to cores
	if nic.Queues() != 8 {
		t.Fatalf("queues = %d, want 8", nic.Queues())
	}
	seen := map[int]bool{}
	for k := 0; k < 64; k++ {
		q := nic.QueueFor(k)
		if q != nic.QueueFor(k) {
			t.Fatalf("RSS unstable for key %d", k)
		}
		if q < 0 || q >= 8 {
			t.Fatalf("RSS out of range: %d", q)
		}
		seen[q] = true
	}
	if len(seen) != 8 {
		t.Fatalf("RSS used %d of 8 queues", len(seen))
	}
}

// TestNICRSSMixesStridedKeys: keys striding by the queue count (the
// residue pattern live connection ids fall into when a fleet churns)
// must still spread across queues — a bare modulo would pin every one
// of them to a single queue.
func TestNICRSSMixesStridedKeys(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultParams(8))
	nic := NewNIC(m, NICParams{})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[nic.QueueFor(3+8*i)] = true
	}
	if len(seen) < 6 {
		t.Fatalf("strided keys hit only %d of 8 queues", len(seen))
	}
}
