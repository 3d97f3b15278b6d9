// Package fifo is the simulator's queue: the channel runtime's run and
// wait queues and the netstack's send flows all keep their backlog in
// one.
package fifo

import (
	"math"

	"chanos/internal/sim"
)

// Queue is a first-in first-out queue that keeps its backing array. A
// pop advances a head index instead of slicing the front away, which
// would strand the array's capacity and make the next append
// reallocate; the queue rewinds to the array's start whenever it
// empties. Elements are never shifted down on a pop — a queue that
// never drains (b.N spawned threads behind one core) would make that
// quadratic. A push that finds the array full with at least half of it
// already popped compacts instead of growing, so a queue that never
// drains stays bounded too.
//
// A queue that is empty most of the time can borrow its array from a
// Pool instead (see Pool).
//
// The zero Queue is empty and ready to use. Its field layout — the
// array first, the head index second — is read reflectively by the
// channel runtime's message sizing (see Any).
type Queue[T any] struct {
	items []T
	head  int
}

// Any is implemented by every Queue type and nothing else, so
// reflective code can recognise a queue inside a message and size it
// as the elements it holds.
type Any interface{ queue() }

func (Queue[T]) queue() {}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Live returns the queued elements, oldest first. The slice aliases the
// queue: it is for reading, and only until the next Push or Pop.
func (q *Queue[T]) Live() []T { return q.items[q.head:] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Front returns the oldest element without removing it. The queue must
// not be empty.
func (q *Queue[T]) Front() T { return q.items[q.head] }

// Pop removes and returns the oldest element. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// PopBack removes and returns the newest element. The queue must not be
// empty.
func (q *Queue[T]) PopBack() T {
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

// Reset empties the queue, keeping its backing array.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// Pool lends backing arrays to queues that are empty most of the time,
// such as a channel's wait queues: a push into a queue with no array
// borrows one, and the pop or Reset that empties the queue gives it
// back, cleared (sim.BufList). The zero Pool is empty and ready to use.
type Pool[T any] struct{ arrays sim.BufList[T] }

// Push pushes v on q, lending q an array from p if q has none.
func (p *Pool[T]) Push(q *Queue[T], v T) {
	if cap(q.items) == 0 {
		q.items = p.arrays.Get()
	}
	q.Push(v)
}

// Pop pops q's oldest element, taking q's array back into p if that
// empties q.
func (p *Pool[T]) Pop(q *Queue[T]) T {
	v := q.Pop()
	if q.Len() == 0 {
		p.reclaim(q)
	}
	return v
}

// Reset empties q and takes its array back into p.
func (p *Pool[T]) Reset(q *Queue[T]) {
	q.Reset()
	p.reclaim(q)
}

// reclaim takes the array of the empty queue q back into p, which
// keeps every array it is given.
func (p *Pool[T]) reclaim(q *Queue[T]) {
	p.arrays.Put(q.items, math.MaxInt)
	q.items = nil
}
