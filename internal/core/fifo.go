package core

import "reflect"

// fifo is a first-in first-out queue that keeps its backing array. A pop
// advances a head index instead of slicing the front away, which would
// strand the array's capacity and make the next append reallocate; the
// queue rewinds to the array's start whenever it empties. Elements are
// never shifted down on a pop — a queue that never drains (b.N spawned
// threads behind one core) would make that quadratic. A push that finds
// the array full with at least half of it already popped compacts
// instead of growing, so a queue that never drains stays bounded too.
type fifo[T any] struct {
	items []T
	head  int
}

// queue is implemented by every fifo type, so sizeOf can recognise one.
type queue interface{ isQueue() }

func (fifo[T]) isQueue() {}

var queueType = reflect.TypeFor[queue]()

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// live returns the queued elements, oldest first. The slice aliases the
// queue: it is for reading, and only until the next push.
func (q *fifo[T]) live() []T { return q.items[q.head:] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest element. The queue must not be
// empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// popBack removes and returns the newest element. The queue must not be
// empty.
func (q *fifo[T]) popBack() T {
	var zero T
	n := len(q.items) - 1
	v := q.items[n]
	q.items[n] = zero
	q.items = q.items[:n]
	if q.head == n {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// reset empties the queue, keeping its backing array.
func (q *fifo[T]) reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}
