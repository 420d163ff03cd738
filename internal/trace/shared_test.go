package trace

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/golden"
	"repro/internal/memnode"
)

// resetShared empties the process-wide store, so a test starts cold.
func resetShared() {
	s := &sharedStore
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	s.lru.Init()
	s.retained = 0
	s.syntheses = 0
}

// sharedState reads the store's bookkeeping under its lock.
func sharedState() (entries, listed, retained int, syntheses int64) {
	s := &sharedStore
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.lru.Len(), s.retained, s.syntheses
}

// watchSlots wraps the slot kernel for the rest of the test: enter sees each
// synthesis's hierarchy before the kernel runs on it, leave after.
func watchSlots(t *testing.T, enter, leave func(h *cache.Hierarchy)) {
	t.Helper()
	t.Cleanup(func() { synthesize = generate })
	synthesize = func(h *cache.Hierarchy, w Workload, m memnode.AddressMap, ops int, seed int64) (*Trace, error) {
		enter(h)
		defer leave(h)
		return generate(h, w, m, ops, seed)
	}
}

// counters are a hierarchy's six counters.
func counters(h *cache.Hierarchy) [6]int64 {
	return [6]int64{h.Accesses, h.HitsL1, h.HitsL2, h.HitsL3, h.Misses, h.Writeback}
}

// TestSharedGoldenOnReusedSlot pushes every golden trace through Shared
// back to back on one goroutine, so every synthesis after the first runs
// on the hierarchy the previous one dirtied: each must start with zeroed
// counters and reproduce its golden digest.
func TestSharedGoldenOnReusedSlot(t *testing.T) {
	resetShared()
	used := map[*cache.Hierarchy]bool{}
	watchSlots(t, func(h *cache.Hierarchy) {
		used[h] = true
		if c := counters(h); c != ([6]int64{}) {
			t.Errorf("a synthesis started on a hierarchy with counters %v", c)
		}
	}, func(*cache.Hierarchy) {})
	got := goldenTraceDigests(t, Shared)
	golden.JSON(t, "testdata/golden_trace_digests.json", got)
	if _, _, _, syntheses := sharedState(); syntheses != int64(len(got)) || len(used) != 1 {
		t.Errorf("%d golden traces made %d syntheses on %d hierarchies; want %d on 1",
			len(got), syntheses, len(used), len(got))
	}
}

// TestSharedBoundsConcurrentSyntheses starts 3 callers per slot on distinct
// keys plus 8 on one key: no more syntheses than slots may be in flight at
// once, no hierarchy may serve two at once, at most one hierarchy per slot
// may exist, the shared key must still synthesize once, and every trace
// must be the uncached kernel's.
func TestSharedBoundsConcurrentSyntheses(t *testing.T) {
	resetShared()
	bound := slotCount()
	var mu sync.Mutex
	busy := map[*cache.Hierarchy]bool{}
	inFlight, peak := 0, 0
	watchSlots(t, func(h *cache.Hierarchy) {
		mu.Lock()
		defer mu.Unlock()
		if busy[h] {
			t.Error("two syntheses ran on one hierarchy at once")
		}
		busy[h] = true
		inFlight++
		peak = max(peak, inFlight)
	}, func(h *cache.Hierarchy) {
		mu.Lock()
		defer mu.Unlock()
		delete(busy, h)
		inFlight--
	})

	m := memnode.NewAddressMap(128)
	type call struct {
		name         string
		wseed, gseed int64
	}
	var calls []call
	for i := 0; i < 3*bound; i++ {
		calls = append(calls, call{WorkloadNames[i%len(WorkloadNames)], int64(1 + i), int64(101 + i)})
	}
	const sameKey = 8
	for range sameKey {
		calls = append(calls, call{"grep", 99, 999})
	}
	got := make([]*Trace, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Shared(c.name, m, 400, c.wseed, c.gseed)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	wg.Wait()

	if peak > bound || peak < 1 {
		t.Errorf("%d syntheses in flight at peak with %d slots", peak, bound)
	}
	if _, _, _, syntheses := sharedState(); syntheses != int64(3*bound+1) {
		t.Errorf("%d distinct keys and %d callers of one key made %d syntheses, want %d",
			3*bound, sameKey, syntheses, 3*bound+1)
	}
	for i := len(calls) - sameKey; i < len(calls); i++ {
		if got[i] != got[len(calls)-sameKey] {
			t.Errorf("caller %d of the shared key got another trace", i)
		}
	}
	for i, c := range calls[:3*bound+1] {
		want, err := generateNamed(c.name, m, 400, c.wseed, c.gseed)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || traceDigest(got[i]) != traceDigest(want) {
			t.Errorf("%s (seeds %d, %d): Shared under contention differs from NewWorkload+Generate",
				c.name, c.wseed, c.gseed)
		}
	}
	if idle := idleHierarchies(); idle > bound {
		t.Errorf("%d hierarchies exist for %d slots", idle, bound)
	}
}

// idleHierarchies counts the hierarchies the free slots hold.
func idleHierarchies() int {
	slots.mu.Lock()
	defer slots.mu.Unlock()
	return len(slots.idle)
}

func TestSharedSingleFlight(t *testing.T) {
	resetShared()
	m := memnode.NewAddressMap(128)
	const callers = 8
	got := make([]*Trace, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Shared("grep", m, 400, 1, 101)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 got %p", i, tr, got[0])
		}
	}
	if _, _, retained, syntheses := sharedState(); syntheses != 1 || retained != 400 {
		t.Errorf("%d callers of one key: %d syntheses, %d ops retained; want 1 and 400",
			callers, syntheses, retained)
	}

	// The shared trace is the one the uncached kernel builds.
	want, err := generateNamed("grep", m, 400, 1, 101)
	if err != nil {
		t.Fatal(err)
	}
	if traceDigest(got[0]) != traceDigest(want) {
		t.Error("Shared and NewWorkload+Generate disagree on one key")
	}

	// Every argument is part of the key.
	for _, k := range []sharedKey{
		{"sort", m, 400, 1, 101},
		{"grep", memnode.NewAddressMap(64), 400, 1, 101},
		{"grep", m, 401, 1, 101},
		{"grep", m, 400, 2, 101},
		{"grep", m, 400, 1, 102},
	} {
		tr, err := Shared(k.name, k.m, k.ops, k.wseed, k.gseed)
		if err != nil {
			t.Fatal(err)
		}
		if tr == got[0] {
			t.Errorf("key %+v returned the trace of another key", k)
		}
	}
	if _, _, _, syntheses := sharedState(); syntheses != 6 {
		t.Errorf("6 distinct keys made %d syntheses", syntheses)
	}
}

func TestSharedBound(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes over a million trace ops")
	}
	resetShared()
	m := memnode.NewAddressMap(128)
	// grep misses on nearly every access, so long traces are cheap. Four
	// quarter-bound traces fill the store exactly; a fifth evicts the
	// least recently used one.
	const quarter = SharedOpsBound / 4
	first, err := Shared("grep", m, quarter, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < 4; i++ {
		if _, err := Shared("grep", m, quarter, i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first so the second is the eviction victim.
	if again, _ := Shared("grep", m, quarter, 0, 100); again != first {
		t.Fatal("retained trace was synthesized again")
	}
	if _, err := Shared("grep", m, quarter, 4, 104); err != nil {
		t.Fatal(err)
	}
	entries, listed, retained, syntheses := sharedState()
	if entries != 4 || listed != 4 || retained != SharedOpsBound || syntheses != 5 {
		t.Fatalf("after an eviction: %d entries, %d listed, %d ops retained, %d syntheses; want 4, 4, %d, 5",
			entries, listed, retained, SharedOpsBound, syntheses)
	}
	if again, _ := Shared("grep", m, quarter, 0, 100); again != first {
		t.Error("the most recently used trace was evicted")
	}
	if _, _, _, syntheses := sharedState(); syntheses != 5 {
		t.Errorf("hit on a retained trace synthesized (%d syntheses)", syntheses)
	}
	if _, err := Shared("grep", m, quarter, 1, 101); err != nil {
		t.Fatal(err)
	}
	if _, _, retained, syntheses := sharedState(); syntheses != 6 || retained != SharedOpsBound {
		t.Errorf("evicted key: %d syntheses, %d ops retained; want 6 and %d", syntheses, retained, SharedOpsBound)
	}

	// A trace larger than the whole bound is served but never kept, and
	// evicts nothing.
	resetShared()
	if _, err := Shared("grep", m, 400, 1, 101); err != nil {
		t.Fatal(err)
	}
	big, err := Shared("grep", m, SharedOpsBound+1, 1, 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Ops) != SharedOpsBound+1 {
		t.Fatalf("over-bound trace has %d ops", len(big.Ops))
	}
	if entries, listed, retained, _ := sharedState(); entries != 1 || listed != 1 || retained != 400 {
		t.Errorf("after an over-bound trace: %d entries, %d listed, %d ops retained; want 1, 1, 400",
			entries, listed, retained)
	}
}

func TestSharedFailureNotRetained(t *testing.T) {
	resetShared()
	m := memnode.NewAddressMap(128)
	if _, err := Shared("nope", m, 400, 1, 101); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: err = %v, want ErrUnknownWorkload", err)
	}
	if _, err := Shared("grep", m, 0, 1, 101); err == nil {
		t.Error("zero ops should fail")
	}
	// Too small a pool for any workload model.
	if _, err := Shared("grep", memnode.AddressMap{Nodes: 0, Interleave: 4096}, 400, 1, 101); err == nil {
		t.Error("empty pool should fail")
	}
	if entries, listed, retained, _ := sharedState(); entries != 0 || listed != 0 || retained != 0 {
		t.Errorf("failures left %d entries, %d listed, %d ops retained", entries, listed, retained)
	}
	// A failure is not remembered: the next call tries again.
	if _, err := Shared("nope", m, 400, 1, 101); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("second call: err = %v, want ErrUnknownWorkload", err)
	}
	if _, _, _, syntheses := sharedState(); syntheses != 4 {
		t.Errorf("4 failing calls made %d attempts", syntheses)
	}
}
