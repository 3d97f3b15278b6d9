package store

import (
	"testing"

	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
)

// TestServeCycleAllocs pins what one warm connection costs the host on
// the real serving path: a client dials a store.NewMachine's port,
// sends a PUT, then a GET on the answer, and closes on the GET's
// answer, and the engine runs to quiet. The accept loop names the
// handler from its runtime's label chunk and spawns it with its Conn as
// the argument; the handler's Apply makes two kernel calls on its
// thread's reply channel, which lives in the Thread; requests, replies,
// the group commit and the connection records on both sides are
// recycled. What is left is exactly these 5 objects:
//   - the client's Endpoint;
//   - the Conn, with its socket channel inside it;
//   - the handler's Thread, with its reply channel inside it;
//   - the two KVResponse values, boxed for the wire.
//
// A seal's fresh open block comes about once in 30 PUTs, which the
// whole-allocation average per cycle does not count.
func TestServeCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	m := NewMachine(sim.NewEngine(), KVMachine(4, 7, Params{Shards: 1, CacheBlocks: 4}))
	defer m.Shutdown()
	var put, get core.Msg = KVRequest{Op: WPut, Seq: 1, Key: "serve", Val: make([]byte, 100)}, KVRequest{Op: WGet, Seq: 2, Key: "serve"}
	putBytes, getBytes := put.(KVRequest).WireBytes(), get.(KVRequest).WireBytes()
	answers := 0
	hooks := net.EndpointHooks{
		OnOpen: func(ep *net.Endpoint) { ep.Send(put, putBytes) },
		OnMessage: func(ep *net.Endpoint, payload core.Msg, _ int) {
			if r := payload.(KVResponse); !r.OK {
				t.Errorf("seq %d failed: %s", r.Seq, r.Err)
			} else if r.Seq == 1 {
				ep.Send(get, getBytes)
			} else {
				ep.Close()
			}
			answers++
		},
	}
	cycle := func() {
		m.NW.Dial(m.Port, hooks)
		m.RT.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	alive := m.RT.Alive() // the accept loop and the store's own threads
	const want = 5
	if per := testing.AllocsPerRun(200, cycle); per != want {
		t.Fatalf("a dial → PUT → GET → close cycle allocates %.0f, want %d", per, want)
	}
	c, sc := m.KV.Counters(), m.Stk.Counters()
	if answers != 2*301 || c.Puts != 301 || c.Gets != 301 || sc.Accepts != 301 || sc.Retransmits != 0 || m.RT.Alive() != alive {
		t.Fatalf("%d answers, %d puts, %d gets, %d accepts, %d retransmits, %d threads alive (%d before): not clean cycles",
			answers, c.Puts, c.Gets, sc.Accepts, sc.Retransmits, m.RT.Alive(), alive)
	}
}

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool
