// Webserver: the paper's architecture serving the workload the ROADMAP
// cares about — heavy request/response traffic from a fleet of clients.
// The NIC delivers each connection's packets to the netstack shard that
// owns it, the accept loop receives connections as messages, and every
// connection gets its own lightweight handler thread ("starting one is
// easy"). No locks anywhere: the connection table is sharded, the socket
// is a channel.
//
// Run: go run ./examples/webserver [-clients 128] [-requests 10000] [-seed 7]
package main

import (
	"flag"
	"fmt"

	"chanos"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
)

func main() {
	var (
		cores    = flag.Int("cores", 64, "simulated cores")
		clients  = flag.Int("clients", 128, "closed-loop clients on the wire")
		requests = flag.Int("requests", 10_000, "simulated client requests to serve")
		seed     = flag.Uint64("seed", 7, "simulation seed")
		loss     = flag.Float64("loss", 0, "wire packet loss probability (each direction)")
	)
	flag.Parse()

	sys := chanos.New(*cores, chanos.Config{Seed: *seed})
	defer sys.Shutdown()
	k := kernel.New(sys.RT, kernel.Config{})
	nic := sys.NewNIC(machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = *seed
	wp.LossProb = *loss
	nw := sys.NewNetwork(nic, wp)
	st := sys.NewNetStack(k, nic, net.StackParams{})
	l := st.Listen(80)

	fmt.Printf("webserver: %d cores, %d netstack shards, %d clients, seed %d\n",
		*cores, st.Shards(), *clients, *seed)

	// Accept loop: connections arrive as messages; each gets a thread.
	var bytesOut uint64
	sys.Boot("accept", func(t *chanos.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.Spawn(fmt.Sprintf("conn.%d", c.ID()), func(ht *core.Thread) {
				serve(ht, c, &bytesOut)
			})
		}
	})

	pool := net.NewClientPool(nw, net.ClientParams{
		Port:        80,
		Clients:     *clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        *seed,
		MakeReq: func(client, req int) (core.Msg, int) {
			return httpReq{Method: "GET", Path: fmt.Sprintf("/item/%d/%d", client, req)}, 96
		},
	})

	// Serve until the fleet has received the requested number of
	// responses — or stops making progress (e.g. -loss 1 delivers
	// nothing, ever).
	slice := sys.Cycles(0.0002) // 0.2 simulated ms per stride
	stalled := 0
	for pool.Responses < uint64(*requests) {
		before := pool.Responses
		sys.RunFor(slice)
		if pool.Responses == before {
			stalled++
		} else {
			stalled = 0
		}
		if stalled >= 50 {
			fmt.Printf("\n  stalled: no responses for %.1f simulated ms; giving up\n",
				50*sys.Seconds(slice)*1e3)
			break
		}
	}

	elapsed := sys.Seconds(sys.Now()) * 1e3
	fmt.Printf("\n  served       %8d requests over %d connections\n", pool.Responses, pool.Completed)
	fmt.Printf("  elapsed      %8.2f simulated ms  (%.0f req/sec, %.0f conns/sec)\n",
		elapsed, float64(pool.Responses)/sys.Seconds(sys.Now()), float64(pool.Completed)/sys.Seconds(sys.Now()))
	us := func(cycles uint64) float64 { return sys.Seconds(cycles) * 1e6 }
	fmt.Printf("  latency      %8.1f us p50   %.1f us p99\n",
		us(pool.Lat.Percentile(50)), us(pool.Lat.Percentile(99)))
	fmt.Printf("  wire         %8d pkts in, %d pkts out, %d retransmits, %d rx drops\n",
		nw.ToHost, nw.ToClient, st.Counters().Retransmits+nw.Retransmits, nic.Counters().RxDrops)
	fmt.Printf("  payload      %8d bytes of responses\n", bytesOut)
}

// httpReq is the HTTP-ish request message.
type httpReq struct {
	Method string
	Path   string
}

// MsgBytes implements core.Sized.
func (r httpReq) MsgBytes() int { return 16 + len(r.Method) + len(r.Path) }

// httpResp is the HTTP-ish response message.
type httpResp struct {
	Status int
	Body   string
}

// serve handles one connection: read a request, render, respond, until
// the client closes.
func serve(t *core.Thread, c *chanos.Conn, bytesOut *uint64) {
	for {
		v, ok := c.Recv(t)
		if !ok {
			break
		}
		req, ok := v.(httpReq)
		if !ok {
			continue
		}
		t.Compute(3000) // route, render, format: ~1.5 µs of app work
		body := "<html>" + req.Path + "</html>"
		resp := httpResp{Status: 200, Body: body}
		wire := 128 + len(body)
		*bytesOut += uint64(wire)
		c.Send(t, resp, wire)
	}
	c.Close(t)
}
