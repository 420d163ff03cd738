package netsim

// ring is a growable circular queue with a power-of-two backing array. The
// hot loop uses it for source queues, input-unit buffers and link delay
// lines: the old `q = append(q, v)` / `q = q[1:]` representation leaks
// capacity off the front, so every queue reallocated continuously under
// steady-state traffic. A ring reaches its high-water capacity once and then
// pushes and pops without touching the allocator.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *ring[T]) Len() int { return q.n }

// push appends v at the tail.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// front returns a pointer to the head element; the pointer is invalidated by
// the next push. The queue must be nonempty.
func (q *ring[T]) front() *T { return &q.buf[q.head] }

// at returns a pointer to the i-th element from the head (0 = front).
func (q *ring[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// popFront removes and returns the head element. The vacated slot is zeroed
// so pooled packets are not pinned through stale flit references.
func (q *ring[T]) popFront() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// truncate keeps the first k elements and zeroes the dropped tail (packet
// purging compacts survivors to the front and then truncates).
func (q *ring[T]) truncate(k int) {
	var zero T
	for i := k; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.n = k
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
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
