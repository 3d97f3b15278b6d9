package store

import "testing"

// TestLedgerCountsOnlyAckedPuts: only an OK PUT enters the ledger, a
// key's version only rises, and Ack reports every acked PUT — stale
// ones included, as the E16/E17 "acked puts" columns count them.
func TestLedgerCountsOnlyAckedPuts(t *testing.T) {
	put := KVRequest{Op: WPut, Key: "k"}
	l := Ledger{}
	for _, c := range []struct {
		name string
		req  KVRequest
		resp KVResponse
	}{
		{"GET", KVRequest{Op: WGet, Key: "k"}, KVResponse{OK: true, Found: true, Ver: 9}},
		{"DELETE", KVRequest{Op: WDelete, Key: "k"}, KVResponse{OK: true, Found: true, Ver: 9}},
		{"store error", put, KVResponse{Err: "store: shard failed", Ver: 9}},
		{"refused PUT", put, KVResponse{Err: "store: log region full"}},
	} {
		if l.Ack(c.req, c.resp) {
			t.Errorf("%s counted as an acked PUT", c.name)
		}
	}
	if len(l) != 0 {
		t.Fatalf("ledger holds %v after no acked PUT", l)
	}

	acks := 0
	for _, ver := range []uint64{3, 5, 4} {
		if l.Ack(put, KVResponse{OK: true, Ver: ver}) {
			acks++
		}
	}
	if acks != 3 {
		t.Errorf("Ack reported %d of 3 acked PUTs", acks)
	}
	if l["k"] != 5 {
		t.Errorf("ledger holds version %d for k, want 5: a lower ack must not lower it", l["k"])
	}
}

// TestWorkloadOutstanding: each client's outstanding request is the one
// MakeReq last drew for it, whatever the other clients drew since.
func TestWorkloadOutstanding(t *testing.T) {
	w := NewWorkload(7, 3, 64, 50, 8)
	var last [3]KVRequest
	for i := 0; i < 30; i++ {
		c := i * i % 3
		m, _ := w.MakeReq(c, i)
		last[c] = m.(KVRequest)
		for cl := range last {
			got := w.Outstanding(cl)
			if got.Op != last[cl].Op || got.Key != last[cl].Key || got.Seq != last[cl].Seq {
				t.Fatalf("after draw %d, client %d outstanding %+v, want %+v", i, cl, got, last[cl])
			}
		}
	}
}
