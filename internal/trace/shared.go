package trace

import (
	"container/list"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/memnode"
)

// SharedOpsBound is the number of trace ops the process-wide store keeps
// alive, about 32 MB at 32 bytes an op. The paper-scale Figure 12 (8
// workloads x 4 sockets x 25 000 ops = 800 000 ops) fits, so its five
// designs synthesize each trace once.
const SharedOpsBound = 1 << 20

// sharedKey is everything a trace is a function of. The design a session
// runs on is not part of it: Generate sees only the workload model, the
// address map and the two seeds.
type sharedKey struct {
	name         string
	m            memnode.AddressMap
	ops          int
	wseed, gseed int64
}

// sharedEntry is one trace, in flight until ready is closed.
type sharedEntry struct {
	key   sharedKey
	ready chan struct{}
	tr    *Trace
	err   error
	// elem is the entry's place in the LRU list once retained.
	elem *list.Element
}

// sharedStore maps keys to traces that are being synthesized or retained.
var sharedStore struct {
	mu       sync.Mutex
	entries  map[sharedKey]*sharedEntry
	lru      list.List // retained entries, most recently used first
	retained int       // sum of ops over lru
	// syntheses counts the calls that found no entry and synthesized (or
	// failed to); the rest waited for one of those or hit a retained trace.
	syntheses int64
}

// slots bounds the syntheses in flight across the process to one per
// GOMAXPROCS, read at first use, and gives each slot a reusable paper
// hierarchy: at most that many 4.5 MB hierarchies ever exist, allocated
// when a slot first finds none idle and Reset between syntheses after that.
var slots struct {
	once sync.Once
	sem  chan struct{} // one token per slot in use
	mu   sync.Mutex
	idle []*cache.Hierarchy // hierarchies of free slots, most recently freed last
}

// synthesize is the kernel Shared runs on a slot; tests wrap it to watch
// the slots.
var synthesize = generate

// slotCount is the number of synthesis slots, fixed at first use.
func slotCount() int {
	slots.once.Do(func() { slots.sem = make(chan struct{}, runtime.GOMAXPROCS(0)) })
	return cap(slots.sem)
}

// takeSlot blocks until a slot is free and returns its hierarchy, empty.
// The most recently freed hierarchy is reused first, so callers that never
// overlap share one hierarchy.
func takeSlot() *cache.Hierarchy {
	slotCount()
	slots.sem <- struct{}{}
	slots.mu.Lock()
	var h *cache.Hierarchy
	if n := len(slots.idle); n > 0 {
		h = slots.idle[n-1]
		slots.idle = slots.idle[:n-1]
	}
	slots.mu.Unlock()
	if h == nil {
		return cache.NewPaperHierarchy()
	}
	h.Reset()
	return h
}

// giveSlot frees the slot that holds h.
func giveSlot(h *cache.Hierarchy) {
	slots.mu.Lock()
	slots.idle = append(slots.idle, h)
	slots.mu.Unlock()
	<-slots.sem
}

// synthesizeOnSlot is Generate on a free slot's hierarchy.
func synthesizeOnSlot(w Workload, m memnode.AddressMap, ops int, seed int64) (*Trace, error) {
	h := takeSlot()
	defer giveSlot(h)
	return synthesize(h, w, m, ops, seed)
}

// Shared returns the trace Generate(NewWorkload(name, m.CapacityBytes(),
// wseed), m, ops, gseed) would, synthesizing it at most once per process
// while it stays retained: concurrent callers with one key wait for a
// single synthesis, and finished traces are kept, least recently used
// evicted first, under SharedOpsBound ops in total. A trace larger than
// the bound is returned but not kept, and neither is a failure.
//
// A synthesis runs on one of the process's synthesis slots (one per
// GOMAXPROCS at first use), so callers with distinct keys synthesize in
// parallel up to that bound and queue beyond it; a caller waiting for
// another's in-flight synthesis of its key holds no slot. Each slot reuses
// one cache hierarchy, and every trace is byte for byte Generate's.
//
// The returned trace is shared: callers must treat it, and its Ops, as
// read-only.
func Shared(name string, m memnode.AddressMap, ops int, wseed, gseed int64) (*Trace, error) {
	key := sharedKey{name: name, m: m, ops: ops, wseed: wseed, gseed: gseed}
	s := &sharedStore
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		<-e.ready
		return e.tr, e.err
	}
	e := &sharedEntry{key: key, ready: make(chan struct{})}
	if s.entries == nil {
		s.entries = make(map[sharedKey]*sharedEntry)
	}
	s.entries[key] = e
	s.syntheses++
	s.mu.Unlock()

	if w, err := NewWorkload(name, m.CapacityBytes(), wseed); err != nil {
		e.err = err
	} else {
		e.tr, e.err = synthesizeOnSlot(w, m, ops, gseed)
	}

	s.mu.Lock()
	if e.err != nil || ops > SharedOpsBound {
		delete(s.entries, key)
	} else {
		e.elem = s.lru.PushFront(e)
		s.retained += ops
		for s.retained > SharedOpsBound {
			old := s.lru.Remove(s.lru.Back()).(*sharedEntry)
			s.retained -= old.key.ops
			delete(s.entries, old.key)
		}
	}
	s.mu.Unlock()
	close(e.ready)
	return e.tr, e.err
}
