package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Access is one raw (pre-cache) memory access.
type Access struct {
	Addr  uint64
	Write bool
	// Instr is the number of instructions executed since the previous
	// memory access of this thread (the paper reconstructs time from
	// instruction IDs times an average CPI).
	Instr int64
}

// Workload produces a raw memory access stream.
type Workload interface {
	Name() string
	Next(rng *rand.Rand) Access
}

// WorkloadNames lists the Table IV workloads in paper order.
var WorkloadNames = []string{
	"wordcount", "grep", "sort", "pagerank", "redis", "memcached", "kmeans", "matmul",
}

// ErrUnknownWorkload is wrapped by NewWorkload (and so by Shared) when the
// name is not a Table IV workload, so callers can tell a bad name from a
// synthesis failure.
var ErrUnknownWorkload = errors.New("trace: unknown workload")

// NewWorkload builds the named Table IV workload model scaled to a memory
// pool of the given byte capacity. Seed shuffles hot regions.
func NewWorkload(name string, capacity uint64, seed int64) (Workload, error) {
	if capacity < 1<<26 {
		return nil, fmt.Errorf("trace: capacity %d too small (need >= 64 MiB)", capacity)
	}
	switch name {
	case "wordcount":
		// Spark wordcount: streaming scan of the text partition plus hash
		// aggregation writes over a medium-size map region.
		return &scanWithMap{
			name: "wordcount", span: capacity, mapSpan: capacity / 16,
			writeFrac: 0.30, instrPerOp: 10, seed: seed,
		}, nil
	case "grep":
		// Spark grep: pure streaming scan, rare match-buffer writes.
		return &scanWithMap{
			name: "grep", span: capacity, mapSpan: capacity / 64,
			writeFrac: 0.05, instrPerOp: 8, seed: seed,
		}, nil
	case "sort":
		// Spark sort: scan pass + shuffle writes scattered across the full
		// output partition.
		return &scanWithMap{
			name: "sort", span: capacity, mapSpan: capacity / 2,
			writeFrac: 0.45, instrPerOp: 9, seed: seed,
		}, nil
	case "pagerank":
		// Twitter-graph PageRank: edge-list streaming plus power-law
		// vertex reads and rank writes.
		return &graphWalk{
			name: "pagerank", vertices: capacity / 3, edges: capacity / 3 * 2,
			alpha: 0.75, writeFrac: 0.25, instrPerOp: 8, seed: seed,
		}, nil
	case "redis":
		// Redis benchmark: 50 clients, uniform-leaning Zipf keys, balanced
		// get/set mix.
		return &keyValue{
			name: "redis", span: capacity, alpha: 0.35, objLines: 4,
			getFrac: 0.5, instrPerOp: 12, seed: seed,
		}, nil
	case "memcached":
		// CloudSuite data caching: Twitter data set, get/set ratio 0.8.
		return &keyValue{
			name: "memcached", span: capacity, alpha: 0.7, objLines: 8,
			getFrac: 0.8, instrPerOp: 10, seed: seed,
		}, nil
	case "matmul":
		// Blocked dense matrix multiply: streaming A, strided B, C
		// accumulation.
		return newMatMul(capacity, seed), nil
	case "kmeans":
		// K-means: streaming scan of the observation array plus hot
		// centroid reads/writes.
		return &kmeans{span: capacity, instrPerOp: 5, seed: seed}, nil
	default:
		return nil, fmt.Errorf("%w %q (want one of %v)", ErrUnknownWorkload, name, WorkloadNames)
	}
}

// scanWithMap models scan-heavy Spark jobs: a sequential pointer advancing
// through the data set, mixed with writes (and re-reads) into a hash-map
// region with uniform-random placement.
type scanWithMap struct {
	name       string
	span       uint64
	mapSpan    uint64
	writeFrac  float64
	instrPerOp int64
	seed       int64
	cursor     uint64
}

func (w *scanWithMap) Name() string { return w.name }

func (w *scanWithMap) Next(rng *rand.Rand) Access {
	instr := jitter(rng, w.instrPerOp)
	if rng.Float64() < w.writeFrac {
		// Hash-map update: random line in the map region (placed in the
		// top of the address space).
		addr := w.span - w.mapSpan + uint64(rng.Int63n(int64(w.mapSpan)))&^63
		return Access{Addr: addr, Write: true, Instr: instr}
	}
	w.cursor += 64
	if w.cursor >= w.span-w.mapSpan {
		w.cursor = uint64(w.seed) % 4096 // wrap to a new pass
	}
	return Access{Addr: w.cursor, Write: false, Instr: instr}
}

// graphWalk models PageRank-style graph analytics: sequential edge-list
// reads, Zipf-distributed vertex reads, and rank writes.
type graphWalk struct {
	name       string
	vertices   uint64
	edges      uint64
	alpha      float64
	writeFrac  float64
	instrPerOp int64
	seed       int64
	edgeCursor uint64
	zipf       *zipf
}

func (w *graphWalk) Name() string { return w.name }

func (w *graphWalk) Next(rng *rand.Rand) Access {
	if w.zipf == nil {
		zr := rand.New(rand.NewSource(w.seed))
		w.zipf = newZipf(zr, 1.0/w.alpha+1, 1, w.vertices/64-1)
	}
	instr := jitter(rng, w.instrPerOp)
	r := rng.Float64()
	switch {
	case r < 0.5:
		// Stream the edge list (placed after the vertex array).
		w.edgeCursor += 64
		if w.edgeCursor >= w.edges {
			w.edgeCursor = 0
		}
		return Access{Addr: w.vertices + w.edgeCursor, Write: false, Instr: instr}
	case r < 0.5+w.writeFrac:
		// Rank write to a popular vertex.
		return Access{Addr: w.zipf.Uint64() * 64, Write: true, Instr: instr}
	default:
		// Vertex read with power-law popularity.
		return Access{Addr: w.zipf.Uint64() * 64, Write: false, Instr: instr}
	}
}

// keyValue models Redis/Memcached: Zipf-popular objects of a few lines
// each; gets read the object, sets write it.
type keyValue struct {
	name       string
	span       uint64
	alpha      float64
	objLines   uint64
	getFrac    float64
	instrPerOp int64
	seed       int64
	zipf       *zipf
	perm       []uint64
	// mask is span-1 when span is a power of two (every paper capacity,
	// N x 8 GB for N = 16..1024), else 0: see objectBase.
	mask uint64
	// pending[head:tail] are the object's remaining lines. The queue is
	// refilled only when empty and an object has at most 8 lines, so a
	// fixed array and two indices replace a slice that reallocated on
	// every object.
	pending    [8]Access
	head, tail int
}

func (w *keyValue) Name() string { return w.name }

func (w *keyValue) Next(rng *rand.Rand) Access {
	if w.head < w.tail {
		a := w.pending[w.head]
		w.head++
		return a
	}
	if w.zipf == nil {
		objects := w.span / (w.objLines * 64)
		zr := rand.New(rand.NewSource(w.seed))
		w.zipf = newZipf(zr, w.alpha+1, 1, objects-1)
		// Scatter popular objects across the address space.
		w.perm = make([]uint64, 4096)
		pr := rand.New(rand.NewSource(w.seed ^ 0x9e37))
		for i := range w.perm {
			w.perm[i] = uint64(pr.Int63())
		}
		if w.span&(w.span-1) == 0 {
			w.mask = w.span - 1
		}
	}
	base := w.objectBase(w.zipf.Uint64())
	write := rng.Float64() >= w.getFrac
	instr := jitter(rng, w.instrPerOp)
	// Touch every line of the object: first access returned now, the rest
	// queued with small instruction gaps. base < span and the object is
	// far smaller than the span, so a line wraps with one subtraction.
	w.head, w.tail = 0, 0
	for i := uint64(1); i < w.objLines; i++ {
		addr := base + i*64
		if addr >= w.span {
			addr -= w.span
		}
		w.pending[w.tail] = Access{Addr: addr, Write: write, Instr: 2}
		w.tail++
	}
	return Access{Addr: base, Write: write, Instr: instr}
}

// objectBase is object obj's first line: its scattered offset reduced mod
// span. The sum wraps mod 2^64 (perm holds 63-bit values), and 2^64 is a
// multiple of every power-of-two span, so a mask gives the remainder the
// division would: no 64-bit DIV per object at the paper's capacities.
func (w *keyValue) objectBase(obj uint64) uint64 {
	x := obj*w.objLines*64 + w.perm[obj%4096]*64
	if w.mask != 0 {
		return x & w.mask &^ 63
	}
	return x % w.span &^ 63
}

// matMul models a blocked dense matrix multiply C = A x B with 64x64
// blocks of float64.
type matMul struct {
	n       uint64 // matrix dimension in elements
	a, b, c uint64 // base addresses
	i, j, k uint64 // current block indices
	phase   int    // element streaming position within the block op
	pos     uint64
	instr   int64
}

func newMatMul(capacity uint64, seed int64) *matMul {
	// Three n x n float64 matrices (24 n^2 bytes) filling the capacity.
	n := uint64(math.Sqrt(float64(capacity/24))) / 8 * 8
	m := &matMul{n: n, instr: 3}
	m.a = 0
	m.b = n * n * 8
	m.c = 2 * n * n * 8
	_ = seed
	return m
}

// matBlock is matMul's block edge in elements; as a constant, the block
// arithmetic of every access is shifts and masks.
const matBlock = 64

func (w *matMul) Name() string { return "matmul" }

func (w *matMul) Next(rng *rand.Rand) Access {
	instr := jitter(rng, w.instr)
	nBlocks := w.n / matBlock
	if nBlocks == 0 {
		nBlocks = 1
	}
	const elemsPerBlock = matBlock * matBlock
	switch w.phase {
	case 0: // stream A block (row-major: good locality)
		addr := w.a + ((w.i*matBlock+w.pos/matBlock)*w.n+w.k*matBlock+w.pos%matBlock)*8
		w.pos++
		if w.pos >= elemsPerBlock {
			w.pos, w.phase = 0, 1
		}
		return Access{Addr: addr, Write: false, Instr: instr}
	case 1: // stream B block (column access: strided)
		addr := w.b + ((w.k*matBlock+w.pos%matBlock)*w.n+w.j*matBlock+w.pos/matBlock)*8
		w.pos++
		if w.pos >= elemsPerBlock {
			w.pos, w.phase = 0, 2
		}
		return Access{Addr: addr, Write: false, Instr: instr}
	default: // write C block
		addr := w.c + ((w.i*matBlock+w.pos/matBlock)*w.n+w.j*matBlock+w.pos%matBlock)*8
		w.pos++
		if w.pos >= elemsPerBlock {
			w.pos, w.phase = 0, 0
			w.k++
			if w.k >= nBlocks {
				w.k = 0
				w.j++
				if w.j >= nBlocks {
					w.j = 0
					w.i = (w.i + 1) % nBlocks
				}
			}
		}
		return Access{Addr: addr, Write: true, Instr: instr}
	}
}

// kmeans models Lloyd's algorithm: streaming reads of the observation
// array with hot centroid reads and periodic centroid writes.
type kmeans struct {
	span       uint64
	instrPerOp int64
	seed       int64
	cursor     uint64
	step       int
}

// kmeansK centroids of kmeansDims float64 dimensions each; as constants,
// the step and centroid arithmetic of every access folds.
const (
	kmeansK    = 64
	kmeansDims = 16
)

func (w *kmeans) Name() string { return "kmeans" }

func (w *kmeans) Next(rng *rand.Rand) Access {
	instr := jitter(rng, w.instrPerOp)
	const centroidBytes = kmeansK * kmeansDims * 8
	w.step++
	switch {
	case w.step%(kmeansDims+2) == 0:
		// Read a centroid while comparing distances.
		c := uint64(rng.Int63n(kmeansK))
		return Access{Addr: w.span - centroidBytes + c*kmeansDims*8, Write: false, Instr: instr}
	case w.step%1024 == 0:
		// Update the nearest centroid's accumulator.
		c := uint64(rng.Int63n(kmeansK))
		return Access{Addr: w.span - centroidBytes + c*kmeansDims*8, Write: true, Instr: instr}
	default:
		w.cursor += 64
		if w.cursor >= w.span-centroidBytes {
			w.cursor = 0
		}
		return Access{Addr: w.cursor, Write: false, Instr: instr}
	}
}

// jitter returns base instructions with +-50% uniform noise (>= 1).
func jitter(rng *rand.Rand, base int64) int64 {
	if base <= 1 {
		return 1
	}
	v := base/2 + int63n(rng, base)
	if v < 1 {
		v = 1
	}
	return v
}

// int63n is rng.Int63n(n) for n > 0: the same draws and the same result.
// The moduli the workloads' jitter uses are constants here, so each costs
// a multiply or a mask instead of rand.Int63n's two 64-bit divisions.
func int63n(rng *rand.Rand, n int64) int64 {
	v := rng.Int63()
	// rand.Int63n redraws every v >= 2^63 - 2^63 mod n, which only a v
	// above MaxInt64-n can be (and none when n is a power of two).
	for v > math.MaxInt64-n && uint64(v) >= 1<<63-(1<<63)%uint64(n) {
		v = rng.Int63()
	}
	u := uint64(v)
	switch n {
	case 3:
		return int64(u % 3)
	case 5:
		return int64(u % 5)
	case 9:
		return int64(u % 9)
	case 10:
		return int64(u % 10)
	case 12:
		return int64(u % 12)
	}
	if n&(n-1) == 0 {
		return int64(u & uint64(n-1))
	}
	return int64(u % uint64(n))
}
