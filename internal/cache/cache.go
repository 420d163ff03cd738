package cache

import "math/bits"

// Access types.
type AccessType int

// Read and Write are the two access types a trace op can issue.
const (
	Read AccessType = iota
	Write
)

// Result describes what one access produced at the memory side.
type Result struct {
	// MemRead is set when the access missed all levels and a line must be
	// fetched from memory.
	MemRead bool
	// WritebackAddr is the address of a dirty line evicted to memory, valid
	// when HasWriteback is set.
	WritebackAddr uint64
	HasWriteback  bool
	// HitLevel is 1, 2 or 3 for hits, 0 for full misses.
	HitLevel int
}

// LineSize is the cache line size in bytes (Table I: 64 B).
const LineSize = 64

// A way is one packed cache-line slot: line<<2 | dirty<<1 | valid. Line
// addresses are byte addresses divided by LineSize, so they fit in 58 bits
// and the shift loses nothing. The zero value is an invalid, clean way.
const (
	wayValid = 1 << 0
	wayDirty = 1 << 1
)

// level is one cache level: every way of every set in one flat array,
// set-major, each set's ways contiguous in LRU order (index 0 = MRU). A
// probe is one masked compare per way and an LRU update is one copy inside
// the set, which for the paper's largest set (16 ways) spans two host cache
// lines.
type level struct {
	ways    []uint64
	assoc   int
	setMask uint64
}

func newLevel(sizeBytes, assoc int) level {
	lines := sizeBytes / LineSize
	nsets := lines / assoc
	if nsets < 1 {
		nsets = 1
	}
	// Index with a mask, so the set count must be a power of two; round
	// down (slightly shrinking unusual configurations).
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return level{ways: make([]uint64, nsets*assoc), assoc: assoc, setMask: uint64(nsets - 1)}
}

// set returns the ways of the set that owns lineAddr.
func (l *level) set(lineAddr uint64) []uint64 {
	base := int(lineAddr&l.setMask) * l.assoc
	return l.ways[base : base+l.assoc]
}

// touch runs an access through this level alone: a hit moves the line to
// MRU and ORs dirty in, a miss installs it at MRU over the LRU way and
// returns that way's line if it was dirty. Every level inserts on its own
// miss whatever the levels below hold; only L3's dirty evictions reach
// memory.
func (l *level) touch(lineAddr uint64, write bool) (hit bool, evicted uint64, wasDirty bool) {
	s := l.set(lineAddr)
	key := lineAddr<<2 | wayValid
	i := 0
	for i < len(s)-1 && s[i]&^wayDirty != key {
		i++
	}
	w := s[i]
	if hit = w&^wayDirty == key; !hit {
		if w&(wayValid|wayDirty) == wayValid|wayDirty {
			evicted, wasDirty = w>>2, true
		}
		w = key
	}
	if write {
		w |= wayDirty
	}
	copy(s[1:i+1], s[:i])
	s[0] = w
	return hit, evicted, wasDirty
}

// touch4 is touch for a 4-way level, reporting only whether the access
// hit: it compares all four ways and moves them with selects, where touch
// runs a data-dependent probe loop and a copy.
func (l *level) touch4(lineAddr uint64, write bool) bool {
	base := int(lineAddr&l.setMask) * 4
	s := (*[4]uint64)(l.ways[base : base+4])
	key := lineAddr<<2 | wayValid
	w0, w1, w2, w3 := s[0], s[1], s[2], s[3]
	// i is the way that goes to MRU: the hit way, or the LRU way on a miss.
	// A line sits in at most one way of its set, so at most one compare
	// holds.
	i := 3 - 3*b2i(w0&^wayDirty == key) - 2*b2i(w1&^wayDirty == key) - b2i(w2&^wayDirty == key)
	w := s[i&3]
	hit := w&^wayDirty == key
	if !hit {
		w = key
	}
	if write {
		w |= wayDirty
	}
	// The ways above i move down one.
	n1, n2, n3 := w1, w2, w3
	if i >= 1 {
		n1 = w0
	}
	if i >= 2 {
		n2 = w1
	}
	if i >= 3 {
		n3 = w2
	}
	s[0], s[1], s[2], s[3] = w, n1, n2, n3
	return hit
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Hierarchy is the paper's three-level hierarchy. It is not safe for
// concurrent use; the trace generator drives each one from one goroutine
// at a time.
type Hierarchy struct {
	l1, l2, l3 level
	lz         lazy
	// Stats of the Access calls; Warm counts none of them.
	Accesses  int64
	HitsL1    int64
	HitsL2    int64
	HitsL3    int64
	Misses    int64
	Writeback int64
	// Warm-up work: Logged counts Warm's L1 misses whose L2/L3 part went
	// to their unit's log, Materialized the units made live, and Replayed
	// the logged entries those units ran through L2 and L3.
	Logged, Materialized, Replayed int64
}

// lazy is the state behind Warm. A unit is the lines with one value of
// line&mask, mask+1 being the smaller of the L2 and L3 set counts: in the
// paper geometry one L2 set and the eight L3 sets below it. No line of
// another unit maps to any of those sets, so a unit's L2/L3 state is a
// function of its own ordered L1-miss stream alone.
//
// Until a unit is live its L2 and L3 sets hold no cache state. The L3 ways
// hold the first entries of its log instead, two 32-bit entries to a way
// (entry k in the low half of the unit's way k/2 when k is even, the high
// half when odd, counting the ways of the unit's L3 sets in index order so
// that a log fills one host cache line at a time), each packed as
// (line>>bits)<<1 | write; the unit's own index supplies the low bits. An
// even entry waits in the unit's pending slot until the odd one after it
// arrives, and the pair goes to its way in one whole-word store, so the
// log never reads the L3 array. Entries past that inline capacity (256 in
// the paper geometry) go to chunks of the shared overflow arena. Making a
// unit live empties its sets and replays its log through them, in order.
type lazy struct {
	mask   uint64
	bits   uint // log2 of the unit count
	inline int  // log entries a unit's L3 ways hold
	// way[i] is the index in l3.ways of unit 0's way i, counting the ways
	// of its L3 sets in index order; unit u's is u*assoc further on.
	way   []int
	units []unitLog // per unit
	ovf   []uint32  // overflow chunks, chunkWords each
	// scratch holds a unit's inline entries while its sets are replayed.
	scratch []uint32
}

// unitLog is one unit's log: its length, or live once replayed; the word
// offsets of its first and last overflow chunk when it has any; and the
// even entry still waiting for its pair when the length is odd and within
// the inline capacity.
type unitLog struct {
	n, head, tail int32
	pending       uint32
}

// live marks a unit whose sets hold its cache state.
const live = -1

// An overflow chunk is chunkEntries log entries followed by the offset of
// the unit's next chunk.
const (
	chunkEntries = 63
	chunkWords   = chunkEntries + 1
)

var emptyChunk [chunkWords]uint32

func newLazy(l2, l3 level) lazy {
	mask := min(l2.setMask, l3.setMask)
	inline := 2 * l3.assoc * int((l3.setMask+1)/(mask+1))
	way := make([]int, inline/2)
	for i := range way {
		way[i] = i/l3.assoc*int(mask+1)*l3.assoc + i%l3.assoc
	}
	return lazy{
		mask:    mask,
		bits:    uint(bits.Len64(mask)),
		inline:  inline,
		way:     way,
		units:   make([]unitLog, mask+1),
		ovf:     make([]uint32, 0, int(mask+1)/8*chunkWords),
		scratch: make([]uint32, inline),
	}
}

// NewPaperHierarchy builds the Section V configuration: 32 KB/4-way L1,
// 2 MB/8-way L2, 32 MB/16-way L3.
func NewPaperHierarchy() *Hierarchy {
	return New(32<<10, 4, 2<<20, 8, 32<<20, 16)
}

// New builds a custom three-level hierarchy.
func New(l1Size, l1Assoc, l2Size, l2Assoc, l3Size, l3Assoc int) *Hierarchy {
	h := &Hierarchy{
		l1: newLevel(l1Size, l1Assoc),
		l2: newLevel(l2Size, l2Assoc),
		l3: newLevel(l3Size, l3Assoc),
	}
	h.lz = newLazy(h.l2, h.l3)
	return h
}

// Reset empties every level and zeroes every counter, keeping the levels'
// memory: a reset hierarchy behaves exactly like a fresh one of the same
// geometry, so a caller that synthesizes trace after trace can reuse one
// instead of allocating 4.5 MB per paper hierarchy. Only L1 and the unit
// logs are cleared; a unit empties its own L2 and L3 sets when it is made
// live.
func (h *Hierarchy) Reset() {
	clear(h.l1.ways)
	clear(h.lz.units)
	h.lz.ovf = h.lz.ovf[:0]
	*h = Hierarchy{l1: h.l1, l2: h.l2, l3: h.l3, lz: h.lz}
}

// Access runs one byte-address access through the hierarchy and reports the
// resulting memory traffic. Inclusive allocation: misses install the line in
// every level; dirty evictions from L3 become write-backs to memory.
// (Dirty evictions from L1/L2 are absorbed by the lower level in this
// model, which is the standard simplification for network-traffic studies:
// only the L3<->memory boundary generates packets.) An L1 miss in a unit
// that still has a warm-up log replays the log first.
func (h *Hierarchy) Access(addr uint64, t AccessType) Result {
	h.Accesses++
	line := addr / LineSize
	write := t == Write
	if hit, _, _ := h.l1.touch(line, write); hit {
		h.HitsL1++
		return Result{HitLevel: 1}
	}
	if u := line & h.lz.mask; h.lz.units[u].n != live {
		h.materialize(u)
	}
	if hit, _, _ := h.l2.touch(line, write); hit {
		h.HitsL2++
		return Result{HitLevel: 2}
	}
	hit, evicted, wasDirty := h.l3.touch(line, write)
	if hit {
		h.HitsL3++
		return Result{HitLevel: 3}
	}
	// Full miss: fetch from memory; every level now holds the line.
	h.Misses++
	res := Result{MemRead: true}
	if wasDirty {
		h.Writeback++
		res.HasWriteback = true
		res.WritebackAddr = evicted * LineSize
	}
	return res
}

// Warm is Access for a warm-up access, whose Result nobody reads: it leaves
// the hierarchy in the state Access would and counts nothing in the Access
// stats. The L1 part runs at once. On an L1 miss the L2/L3 part is
// appended to the line's unit log and runs only when a later Access misses
// L1 in that unit, so a unit the caller never reaches again is never
// simulated. That is exact: L1 inserts on every L1 miss whatever the lower
// levels hold, and L2 on every L2 miss whatever L3 holds, so no level's
// state depends on a deferred part but its own unit's.
func (h *Hierarchy) Warm(addr uint64, t AccessType) {
	line := addr / LineSize
	write := t == Write
	if h.l1.assoc == 4 {
		if h.l1.touch4(line, write) {
			return
		}
	} else if hit, _, _ := h.l1.touch(line, write); hit {
		return
	}
	u := line & h.lz.mask
	if h.lz.units[u].n != live {
		if hi := line >> h.lz.bits; hi < 1<<31 {
			e := uint32(hi) << 1
			if write {
				e |= 1
			}
			h.log(u, e)
			return
		}
		// A line too high to pack: the unit goes live here instead.
		h.materialize(u)
	}
	h.below(line, write)
}

// below is the L2/L3 part of an L1 miss, results discarded.
func (h *Hierarchy) below(line uint64, write bool) {
	if hit, _, _ := h.l2.touch(line, write); !hit {
		h.l3.touch(line, write)
	}
}

// log appends entry e to unit u's log.
func (h *Hierarchy) log(u uint64, e uint32) {
	z := &h.lz
	ul := &z.units[u]
	if k := int(ul.n); k < z.inline {
		if k&1 == 0 {
			ul.pending = e
		} else {
			h.l3.ways[h.inlineWay(u, k/2)] = uint64(ul.pending) | uint64(e)<<32
		}
	} else {
		j := (k - z.inline) % chunkEntries
		if j == 0 {
			c := int32(len(z.ovf))
			z.ovf = append(z.ovf, emptyChunk[:]...)
			if k == z.inline {
				ul.head = c
			} else {
				z.ovf[int(ul.tail)+chunkEntries] = uint32(c)
			}
			ul.tail = c
		}
		z.ovf[int(ul.tail)+j] = e
	}
	ul.n++
	h.Logged++
}

// inlineWay is the index in l3.ways of unit u's way i.
func (h *Hierarchy) inlineWay(u uint64, i int) int {
	return int(u)*h.l3.assoc + h.lz.way[i]
}

// materialize makes unit u live: it empties the unit's L2 and L3 sets and
// replays the unit's log through them.
func (h *Hierarchy) materialize(u uint64) {
	z := &h.lz
	ul := &z.units[u]
	n := int(ul.n)
	ul.n = live
	h.Materialized++
	h.Replayed += int64(n)
	in := z.scratch[:min(n, z.inline)]
	for k := 0; k+1 < len(in); k += 2 {
		w := h.l3.ways[h.inlineWay(u, k/2)]
		in[k], in[k+1] = uint32(w), uint32(w>>32)
	}
	if len(in)&1 == 1 {
		in[len(in)-1] = ul.pending
	}
	for s := u; s <= h.l2.setMask; s += z.mask + 1 {
		clear(h.l2.set(s))
	}
	for s := u; s <= h.l3.setMask; s += z.mask + 1 {
		clear(h.l3.set(s))
	}
	for _, e := range in {
		h.replay(u, e)
	}
	for c, rest := int(ul.head), n-len(in); rest > 0; rest -= chunkEntries {
		for _, e := range z.ovf[c : c+min(rest, chunkEntries)] {
			h.replay(u, e)
		}
		c = int(z.ovf[c+chunkEntries])
	}
}

// replay runs unit u's log entry e through L2 and L3.
func (h *Hierarchy) replay(u uint64, e uint32) {
	h.below(uint64(e>>1)<<h.lz.bits|u, e&1 == 1)
}

// MissRate returns the fraction of accesses that reached memory.
func (h *Hierarchy) MissRate() float64 {
	if h.Accesses == 0 {
		return 0
	}
	return float64(h.Misses) / float64(h.Accesses)
}
