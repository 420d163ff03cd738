package netsim

// laneRec is one flit in flight on a link of the event core (16 bytes,
// pointer-free): the flit, the low 32 bits of its arrival cycle, and the
// downstream router and input unit it lands in. New rejects networks whose
// router or per-router unit count does not fit the 16-bit fields.
type laneRec struct {
	f      flit
	arrive uint32
	dn     uint16
	unit   uint16
}

// farRec is a flit sent onto a waking link (Sim.SetLinkWake): it arrives at
// base + wake, not L cycles after the send, so it waits in the far heap
// instead of a lane. seq is the send order.
type farRec struct {
	arrive, seq int64
	rec         laneRec
}

func (e *farRec) less(o *farRec) bool {
	if e.arrive != o.arrive {
		return e.arrive < o.arrive
	}
	return e.seq < o.seq
}

// farHeap is a binary min-heap of far records ordered by (arrive, seq). A
// link's deadline never moves earlier, so its far records arrive in send
// order, ties broken by seq; and a flit sent once the link is awake arrives
// no earlier than base + wake, so draining the far heap before the lanes
// each cycle keeps every link FIFO.
type farHeap []farRec

func (h *farHeap) push(e farRec) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0 && q[i].less(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	*h = q
}

func (h *farHeap) pop() farRec {
	q := *h
	top, n := q[0], len(q)-1
	q[0], q = q[n], q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q[c+1].less(&q[c]) {
			c++
		}
		if c >= n || !q[c].less(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// activeSet is a router worklist bitmap: Sim.active holds the routers that
// may have work this cycle (flits queued in input units, or source-queue
// flits waiting to drain), and Sim.drain those whose source queue holds
// flits. Sim.step walks both in ascending router index order, which the
// credit protocol requires of the route-and-arbitrate pass for bit-identity
// with a full scan: credits returned during router i's arbitration are
// visible to routers j > i within the same cycle, and only to them.
//
// The set keeps its member count and a summary of its non-empty words, so
// that a walk and a count cost O(non-empty words), not O(routers/64). Both
// are updated only when a bit flips; the callers set a router's bit only
// when it gains work from none (see deliverFlit and enqueueSized), so the
// bookkeeping is paid per transition, never per flit.
type activeSet struct {
	words []uint64 // bit v: router v is a member
	sum   []uint64 // bit i: words[i] is not zero
	n     int64    // members
}

// activeSetLen is the length of the backing block newActiveSet carves a
// set over n routers from.
func activeSetLen(n int) int {
	w := (n + 63) / 64
	return w + (w+63)/64
}

// newActiveSet lays an empty set over n routers on buf, which holds
// activeSetLen(n) zero words.
func newActiveSet(n int, buf []uint64) activeSet {
	w := (n + 63) / 64
	return activeSet{words: buf[:w:w], sum: buf[w:]}
}

// set adds v; a member stays as it is.
func (a *activeSet) set(v int) {
	w := &a.words[v>>6]
	bit := uint64(1) << (uint(v) & 63)
	if *w&bit != 0 {
		return
	}
	if *w == 0 {
		a.sum[v>>12] |= 1 << (uint(v>>6) & 63)
	}
	*w |= bit
	a.n++
}

// clear removes v, which must be a member: both callers clear only the
// router their walk is visiting.
func (a *activeSet) clear(v int) {
	w := &a.words[v>>6]
	*w &^= 1 << (uint(v) & 63)
	if *w == 0 {
		a.sum[v>>12] &^= 1 << (uint(v>>6) & 63)
	}
	a.n--
}

// count returns the number of routers in the set.
func (a *activeSet) count() int64 { return a.n }
