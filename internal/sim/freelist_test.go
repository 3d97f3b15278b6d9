package sim

import (
	"math"
	"testing"
)

// An empty buffer list has nothing to lend: Get returns nil, so the
// caller's first append allocates as it would without the list.
func TestBufListGetOnEmptyReturnsNil(t *testing.T) {
	var l BufList[int]
	if b := l.Get(); b != nil {
		t.Fatalf("Get on an empty list returned %v (cap %d), want nil", b, cap(b))
	}
}

// Put clears a buffer of pointers up to its capacity, not just its
// length, so a recycled array keeps no record alive, and Get lends the
// same array back, empty.
func TestBufListPutClearsToCapacity(t *testing.T) {
	var l BufList[*int]
	b := make([]*int, 3, 5)
	full := b[:cap(b)]
	for i := range full {
		full[i] = new(int)
	}
	l.Put(b, math.MaxInt)
	if l.Len() != 1 {
		t.Fatalf("%d buffers kept, want 1", l.Len())
	}
	for i, p := range full {
		if p != nil {
			t.Fatalf("slot %d of %d still holds a record after Put", i, len(full))
		}
	}
	got := l.Get()
	if len(got) != 0 || cap(got) != cap(b) || &got[:1][0] != &b[0] {
		t.Fatalf("Get returned len %d cap %d, want the put array empty", len(got), cap(got))
	}
	if l.Len() != 0 {
		t.Fatalf("%d buffers left after Get, want 0", l.Len())
	}
}

// A bounded list keeps buffers up to its bound and drops the one past
// it; a buffer without an array is never kept.
func TestBufListDropsPastItsBound(t *testing.T) {
	var l BufList[byte]
	l.Put(nil, 2)
	bufs := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	for _, b := range bufs {
		b[0] = 1
		l.Put(b, 2)
	}
	if l.Len() != 2 {
		t.Fatalf("%d buffers kept under a bound of 2, want 2", l.Len())
	}
	if bufs[2][0] != 1 {
		t.Fatal("the dropped buffer was cleared: Put wrote to an array it does not keep")
	}
	for range 2 {
		if b := l.Get(); &b[:1][0] == &bufs[2][0] {
			t.Fatal("the buffer past the bound was kept")
		}
	}
}

// TakeBack returns a travelling record to the list its field names and
// clears that field in the value it hands out.
func TestTakeBackReturnsToHomeList(t *testing.T) {
	type rec struct {
		v    int
		home *FreeList[rec]
	}
	var home FreeList[rec]
	x := home.Hold(rec{v: 7, home: &home})
	got := TakeBack(x, &x.home)
	if got.v != 7 || got.home != nil {
		t.Fatalf("took %+v, want v 7 and no home", got)
	}
	if home.Len() != 1 || *x != (rec{}) {
		t.Fatalf("record not back on its list zeroed: %d free, record %+v", home.Len(), *x)
	}
}
