// The client kit every kvload-shaped scenario drives a store with: the
// one keyspace, the seeded request generator and its closed-loop fleet,
// and the acked-write ledger audits judge durability against.
package store

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/net"
	"chanos/internal/sim"
)

// Keyspace returns the n scenario keys "key/00000", "key/00001", ...
// in sorted order.
func Keyspace(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key/%05d", i)
	}
	return keys
}

// EvenSplits returns the n-1 split keys that carve keys into n ranges
// of near-equal size (cluster.Params.Splits).
func EvenSplits(keys []string, n int) []string {
	splits := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		splits = append(splits, keys[len(keys)*i/n])
	}
	return splits
}

// Workload is the deterministic mixed GET/PUT request generator shared
// by experiments E15–E17 and the kvload scenario: a fixed keyspace with
// two-tier popularity (80% of ops on the hottest 10% of keys), seeded
// per-client RNG streams, fixed-size values. Keeping it in one place
// keeps the experiments measuring exactly the workload the example
// demonstrates.
type Workload struct {
	NumKeys int
	ReadPct int // share of requests that are GETs (0-100)
	Val     []byte

	seed uint64
	hot  int
	rngs []*sim.RNG
	keys []string    // keys[i] is the i-th key, built once
	out  []KVRequest // out[c] is client c's outstanding request
}

// NewWorkload builds the generator for a client fleet.
func NewWorkload(seed uint64, clients, numKeys, readPct, valBytes int) *Workload {
	hot := numKeys / 10
	if hot < 1 {
		hot = 1
	}
	w := &Workload{NumKeys: numKeys, ReadPct: readPct, Val: make([]byte, valBytes), seed: seed, hot: hot,
		keys: Keyspace(numKeys), out: make([]KVRequest, clients)}
	for i := 0; i < clients; i++ {
		w.rngs = append(w.rngs, sim.NewRNG(seed+uint64(i)*0x9e3779b9+1))
	}
	return w
}

// Key returns the i-th key of the keyspace, 0 <= i < NumKeys.
func (w *Workload) Key(i int) string { return w.keys[i] }

// MakeReq draws one request for a client — the net.ClientParams.MakeReq
// shape — and records it as the client's outstanding request.
func (w *Workload) MakeReq(client, req int) (core.Msg, int) {
	rng := w.rngs[client]
	var ki int
	if rng.Uint64n(10) < 8 {
		ki = int(rng.Uint64n(uint64(w.hot)))
	} else {
		ki = w.hot + int(rng.Uint64n(uint64(w.NumKeys-w.hot)))
	}
	kr := KVRequest{Seq: uint32(req), Key: w.Key(ki)}
	if int(rng.Uint64n(100)) < w.ReadPct {
		kr.Op = WGet
	} else {
		kr.Op = WPut
		kr.Val = w.Val
	}
	w.out[client] = kr
	return kr, kr.WireBytes()
}

// Outstanding returns the request MakeReq last drew for client. A
// closed-loop client has one request in flight and draws the next only
// after the response to it, so a response arriving for client answers
// exactly this request.
func (w *Workload) Outstanding(client int) KVRequest { return w.out[client] }

// Fleet is the closed-loop client fleet that drives w at port: one
// client per workload stream, 8 requests per connection, 2000-cycle
// mean think time, seeded like w. onResp may be nil. Start it with
// net.NewClientPool.
func (w *Workload) Fleet(port int, onResp func(client, req int, payload core.Msg)) net.ClientParams {
	return net.ClientParams{
		Port: port, Clients: len(w.rngs), ReqsPerConn: 8, ThinkCycles: 2000,
		Seed: w.seed, MakeReq: w.MakeReq, OnResp: onResp,
	}
}

// Prefill writes every key once, pipelining 64 PUTs through the group
// commit so the fill costs flushes, not one commit wait per key.
func (w *Workload) Prefill(t *core.Thread, s *Store) {
	const pipe = 64
	var replies []*core.Chan
	flush := func() {
		for _, r := range replies {
			r.Recv(t)
		}
		replies = replies[:0]
	}
	for i := 0; i < w.NumKeys; i++ {
		replies = append(replies, s.PutAsync(t, w.Key(i), w.Val))
		if len(replies) >= pipe {
			flush()
		}
	}
	flush()
}

// Ledger is the acked-write ledger: key → highest version any client
// saw acknowledged. Every write in it must survive whatever fault the
// run claims to tolerate; the audits read each key back against it.
type Ledger map[string]uint64

// Ack records the response resp to request req. Only an OK PUT counts,
// and a key's version only rises. It reports whether resp acked a PUT.
func (l Ledger) Ack(req KVRequest, resp KVResponse) bool {
	if req.Op != WPut || !resp.OK {
		return false
	}
	if resp.Ver > l[req.Key] {
		l[req.Key] = resp.Ver
	}
	return true
}

// LiveAudit reads keys back on thread t, in the order given, each from
// the store at(key) names. It returns the keys that read back missing
// or older than their acked version (lost) and those whose read failed
// with a store error (erred). Each version is read from l as the key
// comes up, so a fleet still acking underneath is judged as it stands.
func (l Ledger) LiveAudit(t *core.Thread, keys []string, at func(key string) *Store) (lost, erred []string) {
	for _, key := range keys {
		switch g := at(key).Get(t, key); {
		case g.Err != "":
			erred = append(erred, key)
		case !g.Found || g.Ver < l[key]:
			lost = append(lost, key)
		}
	}
	return lost, erred
}
