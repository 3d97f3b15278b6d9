package fifo

import "testing"

// A million pushes then a million pops: linear with a head index, hours
// with a pop that shifts the rest down.
func TestFifoOrderAndLinearDrain(t *testing.T) {
	const n = 1 << 20
	var q Queue[int]
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("pop %d = %d", i, v)
		}
	}
	if q.Len() != 0 || q.head != 0 || cap(q.items) < n {
		t.Fatalf("drained queue: len %d head %d cap %d, want 0, 0 and the array kept", q.Len(), q.head, cap(q.items))
	}
}

// A queue that never drains keeps a bounded array: pushes compact the
// popped prefix away instead of growing past it.
func TestFifoNeverDrainingStaysBounded(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for i := 0; i < 100000; i++ {
		q.Push(next)
		next++
		if i%2 == 1 {
			continue
		}
		q.Push(next)
		next++
		if v := q.Pop(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
		want++
		if q.Len() > 64 {
			for q.Len() > 32 {
				if v := q.Pop(); v != want {
					t.Fatalf("pop = %d, want %d", v, want)
				}
				want++
			}
		}
	}
	if cap(q.items) > 256 {
		t.Fatalf("array grew to %d for at most 64 live elements", cap(q.items))
	}
	if got := q.PopBack(); got != next-1 {
		t.Fatalf("popBack = %d, want %d", got, next-1)
	}
}
