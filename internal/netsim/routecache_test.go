package netsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestRouteCacheEncoding pins the byte packing: every outcome round-trips,
// neighbors in one word do not disturb each other, and a repeated fill is a
// no-op.
func TestRouteCacheEncoding(t *testing.T) {
	c := NewRouteCache(5)
	for cur := 0; cur < 5; cur++ {
		for dst := 0; dst < 5; dst++ {
			if got := c.get(cur, dst); got != rcEmpty {
				t.Fatalf("fresh cache holds %d at (%d,%d)", got, cur, dst)
			}
		}
	}
	want := map[[2]int]int{{0, 0}: rcNoPort, {0, 1}: rcNoRoute, {0, 2}: 0, {0, 3}: rcMaxPort, {4, 4}: 7}
	for k, v := range want {
		c.put(k[0], k[1], v)
		c.put(k[0], k[1], v)
	}
	for cur := 0; cur < 5; cur++ {
		for dst := 0; dst < 5; dst++ {
			w, ok := want[[2]int{cur, dst}]
			if !ok {
				w = rcEmpty
			}
			if got := c.get(cur, dst); got != w {
				t.Errorf("(%d,%d) = %d, want %d", cur, dst, got, w)
			}
		}
	}
	if NewRouteCache(1<<12+1) != nil {
		t.Error("cache allocated past the 16M-pair bound")
	}
}

// routeCacheDesigns builds the three routing families the cache meets: the
// reconfigurable String Figure and its S2 ancestor (adaptive first hop, the
// cache serves every hop) and the flattened butterfly (adaptive at every
// hop: the simulator must ignore a cache it is handed).
func routeCacheDesigns(t *testing.T) map[string]Config {
	t.Helper()
	const n = 32
	sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := topology.NewS2(n, 4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := topology.NewFlattenedButterfly(n)
	if err != nil {
		t.Fatal(err)
	}
	g := fb.Graph()
	out := make([][]int, fb.Routers())
	for v := range out {
		out[v] = g.UniqueOutNeighbors(v)
	}
	return map[string]Config{
		"sf": SFConfig(sf, 7),
		"s2": SFConfig(s2, 7),
		"fb": {Out: out, Alg: &routing.ButterflyRouter{B: fb}, EscapeVCs: 1,
			Adaptive: AdaptiveEveryHop, Seed: 7},
	}
}

// cacheRun is one simulation's observable output plus the witness counter
// and the simulator itself, for tests that inspect its internals.
type cacheRun struct {
	res   Results
	snaps []Snapshot
	over  int64
	sim   *Sim
}

// runCached drives a fixed loaded-then-drained scenario over cfg. The load
// is well past saturation, so injection-port queues sit at or over the
// adaptive threshold and first hops take the full-candidate branch.
func runCached(t *testing.T, cfg Config) cacheRun {
	t.Helper()
	var out cacheRun
	cfg.SnapshotEvery = 64
	cfg.OnSnapshot = func(sn Snapshot) { out.snaps = append(out.snaps, sn) }
	s, err := New(cfg)
	if err != nil {
		t.Error(err)
		return out
	}
	pat, err := traffic.NewPattern("uniform", len(cfg.Out))
	if err != nil {
		t.Error(err)
		return out
	}
	s.SetPattern(0.4, pat)
	s.Run(200)
	s.ResetStats()
	s.Run(500)
	s.SetPattern(0, pat)
	s.Run(300)
	out.res, out.over, out.sim = s.Results(), s.Stats().OverThreshold, s
	return out
}

func (a cacheRun) equal(b cacheRun) bool {
	return reflect.DeepEqual(a.res, b.res) && reflect.DeepEqual(a.snaps, b.snaps)
}

// filledWords counts the cache words holding at least one outcome.
func filledWords(c *RouteCache) int {
	filled := 0
	for i := range c.words {
		if c.words[i].Load() != 0 {
			filled++
		}
	}
	return filled
}

// checkFillWitness checks the column-fill rule on a cache after some runs:
// exactly one fill per destination whose misses reached the threshold, each
// such column filled for every router, and — when one simulator at a time
// used the cache — no miss on a filled column, so no count past the
// threshold.
func checkFillWitness(t *testing.T, name string, c *RouteCache, exclusive bool) {
	t.Helper()
	crossed := int64(0)
	for dst := range c.misses {
		m := c.misses[dst].Load()
		if m < c.fillAt {
			continue
		}
		crossed++
		if exclusive && m > c.fillAt {
			t.Errorf("%s: destination %d missed %d times, %d after its column was filled", name, dst, m, m-c.fillAt)
		}
		for cur := 0; cur < c.n; cur++ {
			if cur != dst && c.get(cur, dst) == rcEmpty {
				t.Errorf("%s: destination %d crossed the threshold but (%d, %d) is empty", name, dst, cur, dst)
				break
			}
		}
	}
	if _, fills := c.Counts(); fills != crossed {
		t.Errorf("%s: %d column fills for %d destinations over the threshold", name, fills, crossed)
	}
}

// TestColumnFillCounts pins the route cache's work for fixed seeds the way
// the allocation tests pin allocations: one simulator on a private cache
// makes exactly these misses and column fills. A loaded N=32 run fills
// every column; in a light N=256 run 78 of 256 destinations reach their
// threshold and the rest keep resolving pair by pair. A count that moves is
// either a deliberate change of the fill rule or a bug.
func TestColumnFillCounts(t *testing.T) {
	paper, err := topology.NewPaperSF(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	light := SFConfig(paper, 1)
	cases := []struct {
		name          string
		cfg           Config
		rate          float64
		cycles        int64
		misses, fills int64
	}{
		{"sf-n32-loaded", routeCacheDesigns(t)["sf"], 0.4, 1000, 96, 32},
		{"sf-n256-light", light, 0.004, 2000, 5117, 78},
	}
	for _, c := range cases {
		c.cfg.Routes = NewRouteCache(len(c.cfg.Out))
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := traffic.NewPattern("uniform", len(c.cfg.Out))
		if err != nil {
			t.Fatal(err)
		}
		s.SetPattern(c.rate, pat)
		s.Run(c.cycles)
		misses, fills := c.cfg.Routes.Counts()
		t.Logf("%s: %d misses, %d column fills", c.name, misses, fills)
		if misses != c.misses || fills != c.fills {
			t.Errorf("%s: %d misses and %d column fills, pinned %d and %d", c.name, misses, fills, c.misses, c.fills)
		}
		checkFillWitness(t, c.name, c.cfg.Routes, true)
	}
}

// TestSharedRouteCacheIdentity is the sharing contract at the simulator
// boundary: for each routing family, a run on a shared cache — cold, then
// warm from the previous run, then racing three other simulators on one
// cold cache over freshly built tables, whose compact views they race to
// build as well — is indistinguishable from a run on a private cache and
// from the reference core, which never reads a cache. The over-threshold
// branch must have fired, or the test proved nothing about adaptive first
// hops.
func TestSharedRouteCacheIdentity(t *testing.T) {
	for name, cfg := range routeCacheDesigns(t) {
		private := runCached(t, cfg)
		if private.over == 0 {
			t.Errorf("%s: no adaptive hop found its port over the threshold; raise the load", name)
		}
		ref := cfg
		ref.ReferenceCore = true
		ref.Routes = NewRouteCache(len(cfg.Out))
		if got := runCached(t, ref); !got.equal(private) {
			t.Errorf("%s: private-cache run diverges from the reference core", name)
		} else if got.over != private.over {
			t.Errorf("%s: over-threshold hops %d on the reference core, %d on the event core", name, got.over, private.over)
		}
		if filled := filledWords(ref.Routes); filled != 0 {
			t.Errorf("%s: the reference core filled %d words of the cache it was handed", name, filled)
		}

		shared := cfg
		shared.Routes = NewRouteCache(len(cfg.Out))
		for _, phase := range []string{"cold", "warm"} {
			if got := runCached(t, shared); !got.equal(private) || got.over != private.over {
				t.Errorf("%s: %s shared-cache run diverges from the private-cache run", name, phase)
			}
		}
		filled := filledWords(shared.Routes)
		if wantFill := cfg.Adaptive != AdaptiveEveryHop; (filled > 0) != wantFill {
			t.Errorf("%s: shared cache has %d filled words, want filled=%v", name, filled, wantFill)
		}

		shared = routeCacheDesigns(t)[name]
		shared.Routes = NewRouteCache(len(cfg.Out))
		runs := make([]cacheRun, 4)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i] = runCached(t, shared)
			}()
		}
		wg.Wait()
		for i, got := range runs {
			if !got.equal(private) {
				t.Errorf("%s: concurrent shared-cache run %d diverges from the private-cache run", name, i)
			}
		}
		// The four runs missed toward the same destinations at once; each
		// column still filled once.
		checkFillWitness(t, name+" concurrent", shared.Routes, false)
		if _, fills := shared.Routes.Counts(); (fills > 0) != (cfg.Adaptive != AdaptiveEveryHop) {
			t.Errorf("%s: %d column fills on the concurrently shared cache", name, fills)
		}
	}
}

// TestReferenceCoreLeavesEventStateUntouched checks the oracle's
// independence instead of reading it off the source: after a loaded
// reference-core run — one router's links slow enough to need a lane of
// their own on the event core — the lanes and the far heap are empty and no
// routing accelerator was installed; and the event core, in turn, carries
// no per-link delay line.
func TestReferenceCoreLeavesEventStateUntouched(t *testing.T) {
	cfg := routeCacheDesigns(t)["sf"]
	cfg.Routes = NewRouteCache(len(cfg.Out))
	cfg.LinkLatency = func(u, v int) int {
		if u == 0 {
			return 300
		}
		return DefaultLinkLatency
	}
	ev := runCached(t, cfg)
	cfg.ReferenceCore = true
	run := runCached(t, cfg)
	if ev.sim == nil || run.sim == nil || run.res.Delivered == 0 {
		t.Fatalf("reference run delivered nothing: %+v", run.res)
	}
	if !ev.equal(run) {
		t.Error("event and reference core diverge")
	}
	if ev.sim.lines != nil || len(ev.sim.lanes) != 2 {
		t.Errorf("event core: %d per-link delay lines, %d lanes; want none and 2", len(ev.sim.lines), len(ev.sim.lanes))
	}
	s := run.sim
	for li := range s.lanes {
		if s.lanes[li].Len() != 0 {
			t.Errorf("lane %d holds %d records", li, s.lanes[li].Len())
		}
	}
	if len(s.far) != 0 || s.farSeq != 0 {
		t.Errorf("far heap holds %d records after %d sends", len(s.far), s.farSeq)
	}
	if s.rc != nil || s.balg != nil || s.galg != nil {
		t.Errorf("routing accelerators installed: rc=%v balg=%v galg=%v", s.rc != nil, s.balg != nil, s.galg != nil)
	}
}

// TestSetEscapeRouteDetaches pins the reconfiguration side of sharing: a
// simulator whose tables changed under it leaves the shared cache alone —
// other simulators may still be running on it — and continues on a fresh
// private one.
func TestSetEscapeRouteDetaches(t *testing.T) {
	cfg := routeCacheDesigns(t)["sf"]
	cfg.Routes = NewRouteCache(len(cfg.Out))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", len(cfg.Out))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPattern(0.1, pat)
	s.Run(300)
	before := make([]uint32, len(cfg.Routes.words))
	for i := range before {
		before[i] = cfg.Routes.words[i].Load()
	}
	s.SetEscapeRoute(cfg.EscapeRoute)
	if s.rc == cfg.Routes {
		t.Fatal("SetEscapeRoute kept the shared cache")
	}
	s.Run(300)
	for i := range before {
		if got := cfg.Routes.words[i].Load(); got != before[i] {
			t.Fatalf("shared cache word %d changed from %#x to %#x after the simulator detached", i, before[i], got)
		}
	}
	if _, err := New(Config{Out: cfg.Out[:8], Alg: cfg.Alg, Routes: cfg.Routes}); err == nil {
		t.Error("New accepted a route cache built for another network size")
	}
}
