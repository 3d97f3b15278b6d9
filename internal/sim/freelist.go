package sim

// The simulator recycles host records through the two lists in this
// file and nowhere else: FreeList for records, BufList for the backing
// arrays of slices. Whoever puts a record or a buffer back must make
// that its last use of it.

// FreeList recycles records of type T: Get takes the most recently put
// record, or allocates a zero one when the list is empty, and Put hands
// a record back. A record comes back exactly as it was put, so whoever
// puts one clears what must not leak into its next use. The zero
// FreeList is empty and ready to use.
type FreeList[T any] struct{ free []*T }

// Get returns a record from the list, or a new zero record.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list. The caller must hold no other use of it.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Len returns the number of records on the list.
func (l *FreeList[T]) Len() int { return len(l.free) }

// Hold returns a record from the list holding v.
func (l *FreeList[T]) Hold(v T) *T {
	x := l.Get()
	*x = v
	return x
}

// Take returns the value x holds and puts x back on the list, zeroed so
// that it keeps nothing of this use alive.
func (l *FreeList[T]) Take(x *T) T {
	v := *x
	var zero T
	*x = zero
	l.Put(x)
	return v
}

// TakeBack is Take for a record that travels away from its list, such
// as a packet or a replication batch whose one consumer is not the
// list's owner. home points at the field of x that names the list the
// record came from; the value returned has that field cleared.
func TakeBack[T any](x *T, home **FreeList[T]) T {
	l := *home
	*home = nil
	return l.Take(x)
}

// BufList recycles the backing arrays of []T buffers: Get returns an
// empty buffer from the list, or nil when the list is empty, and Put
// keeps a buffer for the next Get. The zero BufList is empty and ready
// to use.
type BufList[T any] struct{ free [][]T }

// Get returns an empty buffer with a recycled array, or nil.
func (l *BufList[T]) Get() []T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	b := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return b
}

// Put clears b up to its capacity, so that the array keeps nothing of
// this use alive, and keeps it unless the list already holds bound
// buffers: a small bound where a burst's high-water mark must not be
// kept, math.MaxInt where every buffer may be. A buffer without an
// array is not kept. The caller must hold no other use of b.
func (l *BufList[T]) Put(b []T, bound int) {
	if cap(b) == 0 || len(l.free) >= bound {
		return
	}
	b = b[:0]
	clear(b[:cap(b)])
	l.free = append(l.free, b)
}

// Len returns the number of buffers on the list.
func (l *BufList[T]) Len() int { return len(l.free) }
