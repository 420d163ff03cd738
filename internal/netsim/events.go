package netsim

import "math/bits"

// linkEvent is one scheduled wake-up of a link delay line: the cycle at
// which the line's head flit arrives downstream. The scheduling invariant is
// exactly one outstanding event per nonempty link — pushed when a flit lands
// on an empty line, re-armed for the new head after a delivery. Arrival
// times are fixed at push time, and the head of a line can only change
// inside event processing, so the armed cycle always equals the head's
// arrival cycle.
type linkEvent struct {
	arrive int64
	link   int32
}

func (e linkEvent) less(o linkEvent) bool {
	if e.arrive != o.arrive {
		return e.arrive < o.arrive
	}
	return e.link < o.link
}

// eventHeap is a binary min-heap of link events ordered by (arrive, link).
// The link tie-break is not needed for bit-identity — same-cycle deliveries
// on distinct links commute, because every input unit is fed by exactly one
// link — but it keeps the pop order reproducible for debugging.
type eventHeap []linkEvent

func (h *eventHeap) push(e linkEvent) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].less(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() linkEvent {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q[l].less(q[small]) {
			small = l
		}
		if r < len(q) && q[r].less(q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// wheelSize is the span of the wake calendar's timing wheel. Base link
// latencies are small constants (DefaultLinkLatency, plus modest long-wire
// extras), so nearly every wake lands within the wheel and costs O(1) to
// schedule and drain; the rare far wake (a flit sent onto a link still
// waking after reconfiguration, whose deadline — 1 562 cycles for the
// Section VI wake time — lies past the span) overflows into the eventHeap,
// whose head is checked once per cycle.
const (
	wheelSize = 256 // power of two
	wheelMask = wheelSize - 1
)

// wakeList is one wheel bucket: the first and last link of a FIFO list
// threaded through Sim.wakeNext. head < 0 marks it empty (tail is then
// stale).
type wakeList struct {
	head, tail int32
}

// activeSet is the router worklist: a bitmap of routers that may have work
// this cycle (flits queued in input units, or source-queue flits waiting to
// drain). Iteration is in ascending router index order, which the credit
// protocol requires for bit-identity with a full scan: credits returned
// during router i's arbitration are visible to routers j > i within the same
// cycle, and only to them.
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

func (a *activeSet) set(v int)   { a.words[v>>6] |= 1 << (uint(v) & 63) }
func (a *activeSet) clear(v int) { a.words[v>>6] &^= 1 << (uint(v) & 63) }

// forEach visits set routers in ascending order. A bit set during iteration
// behind the cursor (or within the already-snapshotted word) is picked up
// next cycle; that matches the full scan, because the only mid-pass
// activation — an OnDelivered callback injecting into a source queue — feeds
// a queue whose drain phase has already run this cycle in the full scan too.
// It reports whether it visited any router.
func (a *activeSet) forEach(fn func(v int)) bool {
	visited := false
	for wi := range a.words {
		w := a.words[wi]
		visited = visited || w != 0
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			fn(wi<<6 | b)
		}
	}
	return visited
}
