package cache

import (
	"math/rand"
	"testing"
)

func TestColdMissThenHit(t *testing.T) {
	h := NewPaperHierarchy()
	r := h.Access(0x1000, Read)
	if !r.MemRead || r.HitLevel != 0 {
		t.Fatalf("first access should miss to memory, got %+v", r)
	}
	r = h.Access(0x1000, Read)
	if r.MemRead || r.HitLevel != 1 {
		t.Fatalf("second access should hit L1, got %+v", r)
	}
	// Same line, different byte.
	r = h.Access(0x1004, Read)
	if r.HitLevel != 1 {
		t.Fatalf("same-line access should hit L1, got %+v", r)
	}
	if h.Accesses != 3 || h.Misses != 1 || h.HitsL1 != 2 {
		t.Errorf("stats: %+v", *h)
	}
}

func TestLRUEvictionInL1(t *testing.T) {
	h := NewPaperHierarchy()
	// L1: 32KB/4-way/64B = 128 sets. Fill one set with 4 lines, then a 5th
	// evicts the LRU; the evicted line should then hit in L2.
	set := uint64(7)
	addr := func(way uint64) uint64 { return (way*128 + set) * 64 }
	for w := uint64(0); w < 4; w++ {
		h.Access(addr(w), Read)
	}
	h.Access(addr(4), Read) // evicts addr(0) from L1
	r := h.Access(addr(0), Read)
	if r.HitLevel != 2 {
		t.Fatalf("evicted line should hit L2, got %+v", r)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	// A tiny custom hierarchy (direct-mapped-ish) forces evictions fast.
	h := New(64*4, 1, 64*8, 1, 64*16, 1) // 4/8/16 sets, 1-way
	h.Access(0x0, Write)
	// Writing a conflicting line in the same L3 set (16 sets * 64B span).
	conflict := uint64(16 * 64)
	var sawWB bool
	for i := 0; i < 4; i++ {
		r := h.Access(conflict*uint64(i+1), Write)
		if r.HasWriteback {
			sawWB = true
			if r.WritebackAddr%LineSize != 0 {
				t.Errorf("writeback address %x not line aligned", r.WritebackAddr)
			}
		}
	}
	if !sawWB {
		t.Error("dirty eviction never produced a writeback")
	}
	if h.Writeback == 0 {
		t.Error("writeback counter is zero")
	}
}

func TestReadEvictionIsSilent(t *testing.T) {
	h := New(64*4, 1, 64*8, 1, 64*16, 1)
	conflict := uint64(16 * 64)
	for i := 0; i < 40; i++ {
		r := h.Access(conflict*uint64(i), Read)
		if r.HasWriteback {
			t.Fatal("clean eviction produced a writeback")
		}
	}
}

func TestMissRateSequentialVsRandom(t *testing.T) {
	// A working set that fits L3 should have near-zero steady-state miss
	// rate; a working set far larger should miss often.
	fits := NewPaperHierarchy()
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 16<<20; a += 64 {
			fits.Access(a, Read)
		}
	}
	// Second pass over 16MB (fits in 32MB L3) should be all hits; overall
	// miss rate ~0.5.
	if mr := fits.MissRate(); mr > 0.55 {
		t.Errorf("fitting working set miss rate %v, want ~0.5", mr)
	}

	huge := NewPaperHierarchy()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		huge.Access(uint64(rng.Int63n(4<<30))&^63, Read)
	}
	if mr := huge.MissRate(); mr < 0.9 {
		t.Errorf("4GB random working set miss rate %v, want > 0.9", mr)
	}
}

func TestHitLevels(t *testing.T) {
	h := NewPaperHierarchy()
	h.Access(0x40, Read) // miss
	// Evict from L1 only by touching 4 conflicting L1 lines (L1 has 128
	// sets; lines 0x40 + k*128*64 share a set).
	for k := 1; k <= 4; k++ {
		h.Access(uint64(0x40+k*128*64), Read)
	}
	r := h.Access(0x40, Read)
	if r.HitLevel != 2 && r.HitLevel != 3 {
		t.Errorf("expected L2/L3 hit after L1 eviction, got %+v", r)
	}
}

func TestPowerOfTwoSetRounding(t *testing.T) {
	// A 3-way 96-line cache rounds its set count down to a power of two
	// without panicking.
	h := New(96*64, 3, 2<<20, 8, 32<<20, 16)
	for a := uint64(0); a < 1<<20; a += 64 {
		h.Access(a, Read)
	}
	if h.Accesses == 0 {
		t.Fatal("no accesses recorded")
	}
}

// refHierarchy is the layout this package shipped before the packed-way
// kernel: three separately allocated slices (tags, dirty, valid) per set,
// kept here as the reference model the production hierarchy must match
// access for access.
type refHierarchy struct {
	l1, l2, l3 *refLevel
	Accesses   int64
	HitsL1     int64
	HitsL2     int64
	HitsL3     int64
	Misses     int64
	Writeback  int64
}

type refSet struct {
	tags  []uint64
	dirty []bool
	valid []bool
}

type refLevel struct {
	sets    []refSet
	assoc   int
	setMask uint64
}

func newRefLevel(sizeBytes, assoc int) *refLevel {
	lines := sizeBytes / LineSize
	nsets := lines / assoc
	if nsets < 1 {
		nsets = 1
	}
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	l := &refLevel{assoc: assoc, setMask: uint64(nsets - 1)}
	l.sets = make([]refSet, nsets)
	for i := range l.sets {
		l.sets[i] = refSet{
			tags:  make([]uint64, assoc),
			dirty: make([]bool, assoc),
			valid: make([]bool, assoc),
		}
	}
	return l
}

func (l *refLevel) lookup(lineAddr uint64, write bool) bool {
	s := &l.sets[lineAddr&l.setMask]
	for i := 0; i < l.assoc; i++ {
		if s.valid[i] && s.tags[i] == lineAddr {
			tag, d := s.tags[i], s.dirty[i]
			copy(s.tags[1:i+1], s.tags[0:i])
			copy(s.dirty[1:i+1], s.dirty[0:i])
			copy(s.valid[1:i+1], s.valid[0:i])
			s.tags[0], s.dirty[0], s.valid[0] = tag, d || write, true
			return true
		}
	}
	return false
}

func (l *refLevel) insert(lineAddr uint64, dirty bool) (evicted uint64, wasDirty bool) {
	s := &l.sets[lineAddr&l.setMask]
	last := l.assoc - 1
	if s.valid[last] && s.dirty[last] {
		evicted, wasDirty = s.tags[last], true
	}
	copy(s.tags[1:], s.tags[:last])
	copy(s.dirty[1:], s.dirty[:last])
	copy(s.valid[1:], s.valid[:last])
	s.tags[0], s.dirty[0], s.valid[0] = lineAddr, dirty, true
	return evicted, wasDirty
}

func newRef(l1Size, l1Assoc, l2Size, l2Assoc, l3Size, l3Assoc int) *refHierarchy {
	return &refHierarchy{
		l1: newRefLevel(l1Size, l1Assoc),
		l2: newRefLevel(l2Size, l2Assoc),
		l3: newRefLevel(l3Size, l3Assoc),
	}
}

func (h *refHierarchy) Access(addr uint64, t AccessType) Result {
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

// geometry is one hierarchy shape of the differential tests.
type geometry struct {
	name                                              string
	l1Size, l1Assoc, l2Size, l2Assoc, l3Size, l3Assoc int
}

var geometries = []geometry{
	{"paper", 32 << 10, 4, 2 << 20, 8, 32 << 20, 16},
	// Non-power-of-two line counts (set count rounds down) and odd
	// associativities, small enough that every level evicts constantly.
	{"odd-3-5-7", 96 * 64, 3, 640 * 64, 5, 2240 * 64, 7},
	// Direct-mapped L1 over a fully associative single-set L2 and L3.
	{"one-set", 8 * 64, 1, 6 * 64, 6, 24 * 64, 24},
	// L3 with fewer sets (64) than L2 (256): a warm-up unit is one L3 set
	// and the four L2 sets above it.
	{"narrow-l3", 16 * 64, 2, 1024 * 64, 4, 2048 * 64, 32},
}

type access struct {
	addr  uint64
	write bool
}

func (a access) typ() AccessType {
	if a.write {
		return Write
	}
	return Read
}

// differ warms the packed model with the warm stream through Warm and the
// reference through Access, then replays the stream through both and
// compares every Result and, at the end, all six counters (Warm counts
// nothing, so the reference's warm-up counts are dropped).
func differ(t testing.TB, g geometry, warm, stream []access) {
	t.Helper()
	h := New(g.l1Size, g.l1Assoc, g.l2Size, g.l2Assoc, g.l3Size, g.l3Assoc)
	ref := newRef(g.l1Size, g.l1Assoc, g.l2Size, g.l2Assoc, g.l3Size, g.l3Assoc)
	for _, a := range warm {
		h.Warm(a.addr, a.typ())
		ref.Access(a.addr, a.typ())
	}
	*ref = refHierarchy{l1: ref.l1, l2: ref.l2, l3: ref.l3}
	for i, a := range stream {
		at := a.typ()
		got, want := h.Access(a.addr, at), ref.Access(a.addr, at)
		if got != want {
			t.Fatalf("%s: access %d (addr %#x write %v): got %+v, reference %+v",
				g.name, i, a.addr, a.write, got, want)
		}
	}
	got := [6]int64{h.Accesses, h.HitsL1, h.HitsL2, h.HitsL3, h.Misses, h.Writeback}
	want := [6]int64{ref.Accesses, ref.HitsL1, ref.HitsL2, ref.HitsL3, ref.Misses, ref.Writeback}
	if got != want {
		t.Fatalf("%s: counters (accesses, L1, L2, L3, misses, writebacks) %v, reference %v",
			g.name, got, want)
	}
}

// l3Sets is the level's set count after power-of-two rounding.
func (g geometry) l3Sets() uint64 {
	return uint64(len(newLevel(g.l3Size, g.l3Assoc).ways) / g.l3Assoc)
}

// testStreams are the access generators the differential and lazy warm-up
// tests run on every geometry, by name.
func testStreams(g geometry) map[string]func(rng *rand.Rand, i int) access {
	stride := g.l3Sets() * LineSize // consecutive lines of one L3 set
	return map[string]func(rng *rand.Rand, i int) access{
		// Hot lines (every level hits) mixed with a span several times
		// the L3, reads and writes.
		"random": func(rng *rand.Rand, _ int) access {
			span := int64(4 * g.l3Size)
			if rng.Intn(4) == 0 {
				span = int64(g.l1Size)
			}
			return access{uint64(rng.Int63n(span)), rng.Intn(3) == 0}
		},
		// Every access lands in one set of every level.
		"single-set": func(rng *rand.Rand, _ int) access {
			return access{uint64(rng.Intn(3*g.l3Assoc)) * stride, rng.Intn(2) == 0}
		},
		"all-writes": func(rng *rand.Rand, _ int) access {
			return access{uint64(rng.Int63n(int64(2 * g.l3Size))), true}
		},
		// assoc+1 lines cycling through one L3 set: LRU's worst case,
		// every access evicts the line needed next.
		"cyclic-assoc+1": func(_ *rand.Rand, i int) access {
			return access{uint64(i%(g.l3Assoc+1)) * stride, i%2 == 0}
		},
		// Line 0 packs to the same word as an empty way but for its valid
		// bit; top-of-range addresses use every tag bit (and are too high
		// for a warm-up log entry).
		"edges": func(rng *rand.Rand, _ int) access {
			edge := [...]uint64{0, 1, LineSize - 1, LineSize, ^uint64(0), ^uint64(0) - stride, 1 << 63}
			return access{edge[rng.Intn(len(edge))] + uint64(rng.Intn(4))*stride, rng.Intn(2) == 0}
		},
	}
}

// testStream draws n accesses from the named generator, seeded by name and
// geometry.
func testStream(g geometry, name string, gen func(*rand.Rand, int) access, n int) []access {
	rng := rand.New(rand.NewSource(int64(len(name)) + int64(g.l3Assoc)))
	stream := make([]access, n)
	for i := range stream {
		stream[i] = gen(rng, i)
	}
	return stream
}

func TestDifferentialAgainstReference(t *testing.T) {
	for _, g := range geometries {
		n := 60_000
		if g.name == "paper" {
			n = 1_500_000 // enough to fill and churn the 524 288-line L3
		}
		if testing.Short() {
			n /= 10
		}
		for name, gen := range testStreams(g) {
			stream := testStream(g, name, gen, n)
			t.Run(g.name+"/"+name, func(t *testing.T) { differ(t, g, nil, stream) })
		}
	}
}

// liveAll makes every unit live, as an L1 miss in each would.
func (h *Hierarchy) liveAll() {
	for u := range h.lz.units {
		if h.lz.units[u].n != live {
			h.materialize(uint64(u))
		}
	}
}

// sameWays fails the test unless a and b hold the same ways — tag, dirty
// bit and LRU position — at every level.
func sameWays(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	for i, l := range [...][2][]uint64{{a.l1.ways, b.l1.ways}, {a.l2.ways, b.l2.ways}, {a.l3.ways, b.l3.ways}} {
		for j := range l[0] {
			if l[0][j] != l[1][j] {
				t.Fatalf("L%d way %d: %#x lazy, %#x eager", i+1, j, l[0][j], l[1][j])
			}
		}
	}
}

// TestLazyWarmMatchesEager warms the first half of every test stream
// lazily (Warm) and eagerly (Access, Results dropped). One lazy copy makes
// every unit live at once and must then hold the eager ways exactly; a
// second goes live unit by unit as the second half of the stream reaches
// it. Every second-half Result of both must equal the eager one, and so
// must all three hierarchies' ways and counters at the end. The paper
// geometry's random stream logs past the inline capacity of most units,
// so the overflow arena is replayed too.
func TestLazyWarmMatchesEager(t *testing.T) {
	for _, g := range geometries {
		n := 60_000
		if g.name == "paper" {
			n = 3_000_000
		}
		if testing.Short() {
			n /= 10
		}
		for name, gen := range testStreams(g) {
			stream := testStream(g, name, gen, n)
			t.Run(g.name+"/"+name, func(t *testing.T) {
				newH := func() *Hierarchy {
					return New(g.l1Size, g.l1Assoc, g.l2Size, g.l2Assoc, g.l3Size, g.l3Assoc)
				}
				eager, forced, onDemand := newH(), newH(), newH()
				warm, later := stream[:n/2], stream[n/2:]
				for _, a := range warm {
					eager.Access(a.addr, a.typ())
					forced.Warm(a.addr, a.typ())
					onDemand.Warm(a.addr, a.typ())
				}
				eager.Accesses, eager.HitsL1, eager.HitsL2, eager.HitsL3, eager.Misses, eager.Writeback = 0, 0, 0, 0, 0, 0
				eager.liveAll()
				forced.liveAll()
				sameWays(t, forced, eager)
				for i, a := range later {
					want := eager.Access(a.addr, a.typ())
					if got := forced.Access(a.addr, a.typ()); got != want {
						t.Fatalf("access %d after a forced replay: %+v, eager %+v", i, got, want)
					}
					if got := onDemand.Access(a.addr, a.typ()); got != want {
						t.Fatalf("access %d replaying on demand: %+v, eager %+v", i, got, want)
					}
				}
				onDemand.liveAll()
				sameWays(t, forced, eager)
				sameWays(t, onDemand, eager)
				want := [6]int64{eager.Accesses, eager.HitsL1, eager.HitsL2, eager.HitsL3, eager.Misses, eager.Writeback}
				for _, h := range []*Hierarchy{forced, onDemand} {
					if got := [6]int64{h.Accesses, h.HitsL1, h.HitsL2, h.HitsL3, h.Misses, h.Writeback}; got != want {
						t.Fatalf("counters (accesses, L1, L2, L3, misses, writebacks) %v, eager %v", got, want)
					}
				}
				for _, h := range []*Hierarchy{forced, onDemand} {
					if h.Replayed != h.Logged {
						t.Fatalf("%d log entries replayed of %d logged", h.Replayed, h.Logged)
					}
				}
			})
		}
	}
}

// TestResetMatchesNew dirties a hierarchy with one random stream (its
// first half as warm-up, so units keep logs, some past their inline
// capacity), resets it, and then replays a second stream through it and
// through a fresh New of the same geometry: every Result and all six
// counters must agree. A quarter of both streams hits an L1-sized hot
// span, so any line or log entry a Reset left behind changes a HitLevel.
func TestResetMatchesNew(t *testing.T) {
	for _, g := range geometries {
		n := 20_000
		if g.name == "paper" {
			n = 400_000 // enough to leave dirty lines in most L3 sets
		}
		if testing.Short() {
			n /= 10
		}
		stream := func(seed int64) []access {
			rng := rand.New(rand.NewSource(seed))
			s := make([]access, n)
			for i := range s {
				span := int64(4 * g.l3Size)
				if rng.Intn(4) == 0 {
					span = int64(g.l1Size)
				}
				s[i] = access{uint64(rng.Int63n(span)), rng.Intn(3) == 0}
			}
			return s
		}
		t.Run(g.name, func(t *testing.T) {
			reused := New(g.l1Size, g.l1Assoc, g.l2Size, g.l2Assoc, g.l3Size, g.l3Assoc)
			for i, a := range stream(1) {
				if i < n/2 {
					reused.Warm(a.addr, a.typ())
				} else {
					reused.Access(a.addr, a.typ())
				}
			}
			reused.Reset()
			fresh := New(g.l1Size, g.l1Assoc, g.l2Size, g.l2Assoc, g.l3Size, g.l3Assoc)
			for i, a := range stream(2) {
				at := a.typ()
				if got, want := reused.Access(a.addr, at), fresh.Access(a.addr, at); got != want {
					t.Fatalf("access %d (addr %#x write %v): reset hierarchy %+v, fresh %+v",
						i, a.addr, a.write, got, want)
				}
			}
			got := [6]int64{reused.Accesses, reused.HitsL1, reused.HitsL2, reused.HitsL3, reused.Misses, reused.Writeback}
			want := [6]int64{fresh.Accesses, fresh.HitsL1, fresh.HitsL2, fresh.HitsL3, fresh.Misses, fresh.Writeback}
			if got != want {
				t.Fatalf("counters (accesses, L1, L2, L3, misses, writebacks) %v after Reset, fresh %v", got, want)
			}
		})
	}
}

// FuzzHierarchyDifferential decodes the input into a warm-up length (the
// first byte: how many of the accesses that follow go through Warm) and
// accesses — three bytes each: a set-local line index, a set selector, a
// write flag — over the odd-sized geometry, where a few hundred bytes
// already evict from L3 and overflow a unit's inline warm-up log.
func FuzzHierarchyDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 0, 0, 1})                         // warm write, read, write one line
	f.Add([]byte{3, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 0, 0}) // dirty L1 set overflow, trailing partial
	cyc := []byte{32}
	for i := 0; i < 64; i++ {
		cyc = append(cyc, byte(i%8), 0, byte(i&1)) // 8 = l3Assoc+1 cyclic over one set
	}
	f.Add(cyc)
	// 150 warm-up misses in one unit fill its 28 inline entries and two
	// overflow chunks, then 40 accesses replay them.
	long := []byte{150}
	for i := 0; i < 190; i++ {
		long = append(long, byte(i%9), 0, byte(i%5&1))
	}
	f.Add(long)
	g := geometries[1]
	stride := g.l3Sets() * LineSize
	f.Fuzz(func(t *testing.T, data []byte) {
		var nwarm int
		if len(data) > 0 {
			nwarm, data = int(data[0]), data[1:]
		}
		stream := make([]access, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			stream = append(stream, access{
				addr:  uint64(data[0])*stride + uint64(data[1]%4)*LineSize,
				write: data[2]&1 == 1,
			})
		}
		nwarm = min(nwarm, len(stream))
		differ(t, g, stream[:nwarm], stream[nwarm:])
	})
}

// TestTouch4MatchesTouch runs one random stream through two 4-way levels,
// one with touch and one with touch4: every hit flag and, after every
// access, every way (line, dirty and valid bits, LRU order) must agree.
// The lines come from a pool four times the level's size, so the stream
// hits each MRU position, misses, and evicts clean and dirty lines.
func TestTouch4MatchesTouch(t *testing.T) {
	ref, fast := newLevel(8*4*LineSize, 4), newLevel(8*4*LineSize, 4)
	rng := rand.New(rand.NewSource(4))
	for i := range 200_000 {
		line, write := uint64(rng.Intn(128)), rng.Intn(3) == 0
		want, _, _ := ref.touch(line, write)
		if got := fast.touch4(line, write); got != want {
			t.Fatalf("access %d (line %d): touch4 hit %v, touch %v", i, line, got, want)
		}
		s := line & ref.setMask
		if got, want := fast.set(s), ref.set(s); [4]uint64(got) != [4]uint64(want) {
			t.Fatalf("access %d (line %d): set %x after touch4, %x after touch", i, line, got, want)
		}
	}
}
