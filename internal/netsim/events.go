package netsim

import "math/bits"

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
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

func (a *activeSet) set(v int)   { a.words[v>>6] |= 1 << (uint(v) & 63) }
func (a *activeSet) clear(v int) { a.words[v>>6] &^= 1 << (uint(v) & 63) }

// count returns the number of routers in the set.
func (a *activeSet) count() int64 {
	n := 0
	for _, w := range a.words {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}
