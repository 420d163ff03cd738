package cache

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

// lookup probes the level; on hit the line moves to MRU and dirty is ORed.
func (l *level) lookup(lineAddr uint64, write bool) bool {
	s := l.set(lineAddr)
	key := lineAddr<<2 | wayValid
	for i, w := range s {
		if w&^wayDirty == key {
			if write {
				w |= wayDirty
			}
			copy(s[1:i+1], s[:i])
			s[0] = w
			return true
		}
	}
	return false
}

// insert installs the line at MRU, returning any evicted dirty line.
func (l *level) insert(lineAddr uint64, dirty bool) (evicted uint64, wasDirty bool) {
	s := l.set(lineAddr)
	last := len(s) - 1
	if lru := s[last]; lru&(wayValid|wayDirty) == wayValid|wayDirty {
		evicted, wasDirty = lru>>2, true
	}
	copy(s[1:], s[:last])
	w := lineAddr<<2 | wayValid
	if dirty {
		w |= wayDirty
	}
	s[0] = w
	return evicted, wasDirty
}

// Hierarchy is the paper's three-level hierarchy. It is not safe for
// concurrent use; the trace generator drives each one from one goroutine
// at a time.
type Hierarchy struct {
	l1, l2, l3 level
	// Stats
	Accesses  int64
	HitsL1    int64
	HitsL2    int64
	HitsL3    int64
	Misses    int64
	Writeback int64
}

// NewPaperHierarchy builds the Section V configuration: 32 KB/4-way L1,
// 2 MB/8-way L2, 32 MB/16-way L3.
func NewPaperHierarchy() *Hierarchy {
	return New(32<<10, 4, 2<<20, 8, 32<<20, 16)
}

// New builds a custom three-level hierarchy.
func New(l1Size, l1Assoc, l2Size, l2Assoc, l3Size, l3Assoc int) *Hierarchy {
	return &Hierarchy{
		l1: newLevel(l1Size, l1Assoc),
		l2: newLevel(l2Size, l2Assoc),
		l3: newLevel(l3Size, l3Assoc),
	}
}

// Reset empties every level and zeroes the six counters, keeping the
// levels' memory: a reset hierarchy behaves exactly like a fresh one of the
// same geometry, so a caller that synthesizes trace after trace can reuse
// one instead of allocating 4.3 MB per paper hierarchy.
func (h *Hierarchy) Reset() {
	clear(h.l1.ways)
	clear(h.l2.ways)
	clear(h.l3.ways)
	*h = Hierarchy{l1: h.l1, l2: h.l2, l3: h.l3}
}

// Access runs one byte-address access through the hierarchy and reports the
// resulting memory traffic. Inclusive allocation: misses install the line in
// every level; dirty evictions from L3 become write-backs to memory.
// (Dirty evictions from L1/L2 are absorbed by the lower level in this
// model, which is the standard simplification for network-traffic studies:
// only the L3<->memory boundary generates packets.)
func (h *Hierarchy) Access(addr uint64, t AccessType) Result {
	h.Accesses++
	line := addr / LineSize
	write := t == Write
	if h.l1.lookup(line, write) {
		h.HitsL1++
		return Result{HitLevel: 1}
	}
	if h.l2.lookup(line, write) {
		h.HitsL2++
		h.l1.insert(line, write)
		return Result{HitLevel: 2}
	}
	if h.l3.lookup(line, write) {
		h.HitsL3++
		h.l1.insert(line, write)
		h.l2.insert(line, write)
		return Result{HitLevel: 3}
	}
	// Full miss: fetch from memory, install everywhere.
	h.Misses++
	res := Result{MemRead: true}
	h.l1.insert(line, write)
	h.l2.insert(line, write)
	if evicted, wasDirty := h.l3.insert(line, write); wasDirty {
		h.Writeback++
		res.HasWriteback = true
		res.WritebackAddr = evicted * LineSize
	}
	return res
}

// MissRate returns the fraction of accesses that reached memory.
func (h *Hierarchy) MissRate() float64 {
	if h.Accesses == 0 {
		return 0
	}
	return float64(h.Misses) / float64(h.Accesses)
}
