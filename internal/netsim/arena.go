package netsim

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// arenas are the large blocks New carves a simulator's per-router tables
// from. A simulator's size is its network's, not its traffic's: at N=1024
// they are about 6 MB, which a session that moves a few thousand flits
// would otherwise allocate, clear and leave to the collector every time.
// Release hands them to a process-wide free list, and the next New over a
// network of the same shape takes them back and clears them, so sessions
// on one network reuse one set. Packet slabs stay out: their growth is
// counted (EngineStats.PoolGrowths), and a reused slab would change the
// count.
type arenas struct {
	// n, edges and vcs are the shape (routers, links, VCs per port); every
	// length below but masks' and the lanes' follows from it, and New
	// replaces those two when they do not fit.
	n, edges, vcs int
	routers       []router
	ptrs          []*router
	deg           []int32 // in-degree scratch while the ports are wired
	units         []inputUnit
	masks         []uint64
	ovcs          []ovc
	rr            []int
	ints          []int // outNbr (edges), then inUp (edges + n)
	upOut         []int32
	down          []downPort
	srcQ          []flit
	links         []linkCost
	lanes         []ring[laneRec]
	rng           *rand.Rand
}

// The free list is bounded twice: by count, since more sets than sessions
// running at once are never taken back, and by bytes, so that sets of
// shapes no later session asks for (a figure walks many sizes) pin little.
// The oldest set goes first.
const arenaBudget = 24 << 20

var arenaFree struct {
	sync.Mutex
	sets  []*arenas
	bytes int
}

// takeArenas returns a cleared set for the shape, recycled when the free
// list holds one.
func takeArenas(n, edges, vcs int) *arenas {
	arenaFree.Lock()
	for i, a := range arenaFree.sets {
		if a.n == n && a.edges == edges && a.vcs == vcs {
			arenaFree.sets = slices.Delete(arenaFree.sets, i, i+1)
			arenaFree.bytes -= a.size()
			arenaFree.Unlock()
			a.clear()
			return a
		}
	}
	arenaFree.Unlock()
	units := (edges + n) * vcs
	return &arenas{
		n: n, edges: edges, vcs: vcs,
		routers: make([]router, n),
		ptrs:    make([]*router, n),
		deg:     make([]int32, n),
		units:   make([]inputUnit, units),
		ovcs:    make([]ovc, units),
		rr:      make([]int, edges+n),
		ints:    make([]int, 2*edges+n),
		upOut:   make([]int32, edges+n),
		down:    make([]downPort, edges),
		srcQ:    make([]flit, n*srcQSeed),
		links:   make([]linkCost, edges),
	}
}

// clear zeroes every arena, so that a recycled set reads exactly as a new
// one.
func (a *arenas) clear() {
	clear(a.routers)
	clear(a.ptrs)
	clear(a.deg)
	clear(a.units)
	clear(a.masks)
	clear(a.ovcs)
	clear(a.rr)
	clear(a.ints)
	clear(a.upOut)
	clear(a.down)
	clear(a.srcQ)
	clear(a.links)
	for i := range a.lanes {
		clear(a.lanes[i].buf)
		a.lanes[i].head, a.lanes[i].n = 0, 0
	}
}

// size is the set's footprint in bytes.
func (a *arenas) size() int {
	b := len(a.routers)*int(unsafe.Sizeof(router{})) +
		len(a.ptrs)*int(unsafe.Sizeof((*router)(nil))) +
		len(a.deg)*4 + len(a.units)*int(unsafe.Sizeof(inputUnit{})) +
		len(a.masks)*8 + len(a.ovcs)*int(unsafe.Sizeof(ovc{})) +
		len(a.rr)*8 + len(a.ints)*8 + len(a.upOut)*4 +
		len(a.down)*int(unsafe.Sizeof(downPort{})) +
		len(a.srcQ)*int(unsafe.Sizeof(flit{})) +
		len(a.links)*int(unsafe.Sizeof(linkCost{}))
	for i := range a.lanes {
		b += len(a.lanes[i].buf) * int(unsafe.Sizeof(laneRec{}))
	}
	return b
}

// giveArenas puts a set on the free list, dropping the oldest sets past
// either bound.
func giveArenas(a *arenas) {
	size := a.size()
	if size > arenaBudget {
		return
	}
	arenaFree.Lock()
	defer arenaFree.Unlock()
	keep := runtime.GOMAXPROCS(0)
	drop := 0
	for arenaFree.bytes+size > arenaBudget || len(arenaFree.sets)-drop >= keep {
		arenaFree.bytes -= arenaFree.sets[drop].size()
		drop++
	}
	arenaFree.sets = append(slices.Delete(arenaFree.sets, 0, drop), a)
	arenaFree.bytes += size
}

// Release returns the simulator's arenas for a later New to reuse. The
// simulator must not be used afterwards; its Results, Stats and snapshots
// taken before stay valid, since none of them shares memory with the
// arenas. A simulator that is never released is garbage-collected as
// usual, and a second Release does nothing.
func (s *Sim) Release() {
	if s.ar == nil {
		return
	}
	a := s.ar
	s.ar, s.routers, s.ovcs, s.links, s.lanes, s.rng = nil, nil, nil, nil, nil, nil
	s.active, s.drain = activeSet{}, activeSet{}
	giveArenas(a)
}
