package netsim

// ring is a growable circular queue with a power-of-two backing array. The
// hot loop uses it for the queues nothing bounds — source queues, and the
// reference core's link delay lines (input units carry a fixed ring inline,
// and the event core's delivery lanes are sized exactly in New): the old
// `q = append(q, v)` / `q = q[1:]` representation leaks capacity off the
// front, so every queue reallocated continuously under steady-state
// traffic. A ring reaches its high-water capacity once and then pushes and
// pops without touching the allocator. Its elements (flits, inflight
// records) hold no pointers, so popped slots are left as they are.
type ring[T any] struct {
	buf     []T
	head, n uint32
}

// Len returns the number of queued elements.
func (q *ring[T]) Len() int { return int(q.n) }

// full reports whether the next push grows the backing array.
func (q *ring[T]) full() bool { return int(q.n) == len(q.buf) }

// push appends v at the tail.
func (q *ring[T]) push(v T) {
	if q.full() {
		q.grow()
	}
	q.buf[int(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// front returns a pointer to the head element; the pointer is invalidated by
// the next push. The queue must be nonempty.
func (q *ring[T]) front() *T { return &q.buf[q.head] }

// popFront removes and returns the head element.
func (q *ring[T]) popFront() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.n--
	return v
}

// grow doubles the backing array. It is deliberately a separate, never
// inlined function: growth happens only until a queue reaches its
// steady-state high-water mark, and keeping the allocation out of push
// lets cmd/simlint's hot-escape analyzer pin ring.push allocation-free.
//
//go:noinline
func (q *ring[T]) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	nb := make([]T, size)
	for i := 0; i < int(q.n); i++ {
		nb[i] = q.buf[(int(q.head)+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
