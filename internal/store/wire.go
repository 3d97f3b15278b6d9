package store

import (
	"encoding/json"

	"chanos/internal/core"
	"chanos/internal/net"
)

// The store's wire protocol: a compact request/response pair carried as
// netstack payloads, so remote clients reach the service through the
// full path — wire → NIC RSS → net shard → store shard → log device —
// with every hop a message. Replies are versioned: clients can detect
// stale reads and lost updates without a second round trip.

// WireOp selects the operation in a KVRequest.
type WireOp uint8

// Wire operations.
const (
	WGet WireOp = iota + 1
	WPut
	WDelete
	// WStats scrapes a live telemetry snapshot: the response Val carries
	// the machine's telemetry.Snapshot as JSON. Serving it costs wire
	// traffic like any request, but building the snapshot costs the
	// machine zero simulated cycles — see internal/telemetry.
	WStats
	// WPutV and WDelV are version-carrying writes: the record is applied
	// at the request's Ver instead of minting a fresh one, and a request
	// whose Ver does not exceed the key's current version is acknowledged
	// WITHOUT applying (idempotent). They are the cluster fabric's
	// migration traffic (internal/cluster): addressed to a specific
	// machine, never routed by the shard map, and safe to deliver twice.
	WPutV
	WDelV
	// WMap and WMapSet are the shard-map verbs (internal/cluster): WMap
	// fetches the serving node's current map as JSON in the response Val;
	// WMapSet installs the newer map carried in the request Val. A store
	// serving outside a cluster answers both with an error.
	WMap
	WMapSet
)

func (op WireOp) String() string {
	switch op {
	case WGet:
		return "GET"
	case WPut:
		return "PUT"
	case WDelete:
		return "DELETE"
	case WStats:
		return "STATS"
	case WPutV:
		return "PUTV"
	case WDelV:
		return "DELV"
	case WMap:
		return "MAP"
	case WMapSet:
		return "MAPSET"
	}
	return "?"
}

// KVRequest is one client request. For WPutV/WDelV, Ver is the version
// the record applies at.
type KVRequest struct {
	Op  WireOp
	Seq uint32 // client-chosen tag, echoed in the response
	Key string
	Val []byte
	Ver uint64 // version-carrying writes only
}

// MsgBytes implements core.Sized: a 16-byte header (op, seq, lengths),
// then key and value bytes; a version-carrying write additionally pays
// for the version word (requests that never carry one cost what they
// always did).
func (r KVRequest) MsgBytes() int {
	n := 16 + len(r.Key) + len(r.Val)
	if r.Ver != 0 {
		n += 8
	}
	return n
}

// WireBytes is the request's simulated size on the wire (for Conn.Send
// / Endpoint.Send).
func (r KVRequest) WireBytes() int { return r.MsgBytes() }

// KVResponse answers one KVRequest. Moved is the cluster fabric's
// routing redirect: the serving node does not own the key under its
// current shard map — retry at node Owner, whose map is at least
// MapVer (internal/cluster clients refresh their cached map on seeing
// a version ahead of their own).
type KVResponse struct {
	Seq   uint32
	OK    bool
	Found bool
	Ver   uint64
	Val   []byte
	Err   string

	Moved  bool
	Owner  int
	MapVer uint64
}

// MsgBytes implements core.Sized. A Moved redirect pays for its owner
// and map-version words; ordinary responses cost what they always did.
func (r KVResponse) MsgBytes() int {
	n := 24 + len(r.Val) + len(r.Err)
	if r.Moved {
		n += 12
	}
	return n
}

// WireBytes is the response's simulated wire size.
func (r KVResponse) WireBytes() int { return r.MsgBytes() }

// Apply executes one wire request against the store on the calling
// thread (blocking until the store's reply — for writes, until the log
// record is durable).
func (s *Store) Apply(t *core.Thread, req KVRequest) KVResponse {
	switch req.Op {
	case WGet:
		r := s.Get(t, req.Key)
		return KVResponse{Seq: req.Seq, OK: r.Err == "", Found: r.Found, Ver: r.Ver, Val: r.Val, Err: r.Err}
	case WPut, WDelete, WPutV, WDelV:
		a := writeArg{Op: recPut, Key: req.Key, Val: req.Val}
		if req.Op == WDelete || req.Op == WDelV {
			a = writeArg{Op: recDel, Key: req.Key}
		}
		if req.Op == WPutV || req.Op == WDelV {
			a.Versioned, a.Ver = true, req.Ver
		}
		r := s.write(t, a)
		return KVResponse{Seq: req.Seq, OK: r.OK, Found: r.Found, Ver: r.Ver, Err: r.Err}
	case WStats:
		if s.statd == nil {
			return KVResponse{Seq: req.Seq, Err: "store: no statd attached"}
		}
		b, err := json.Marshal(s.statd.SnapshotNow())
		if err != nil {
			return KVResponse{Seq: req.Seq, Err: "store: stats encode: " + err.Error()}
		}
		return KVResponse{Seq: req.Seq, OK: true, Found: true, Val: b}
	}
	return KVResponse{Seq: req.Seq, Err: "store: unknown wire op"}
}

// ServeConn pumps one connection: decode requests in arrival order,
// execute each against the store, send the response. It returns when
// the peer closes. One lightweight thread per connection is the
// intended serving shape ("starting one is easy"). The same protocol
// served on a replica machine's read port is GET-only with bounded
// staleness — see ServeReplicaReads (replica_read.go).
func ServeConn(t *core.Thread, c *net.Conn, s *Store) {
	for {
		v, ok := c.Recv(t)
		if !ok {
			break
		}
		req, ok := v.(KVRequest)
		if !ok {
			continue
		}
		resp := s.Apply(t, req)
		c.Send(t, resp, resp.WireBytes())
	}
	c.Close(t)
}
