package stringfigure_test

// Exact allocation counts for the netsim core. Go reports a benchmark's
// allocs/op as total allocations divided by b.N in integer arithmetic, so
// "0 allocs/op" only proves fewer than one allocation per cycle. These
// tests count the allocations of whole windows instead, over the
// benchmarks' own configurations (netsimStepConfig, netsimStepSim): a
// per-cycle allocation reads at least 2000 in the steady-state window,
// while the one-off high-water growth a warm network may still do
// (stats.Histogram.Observe reaching a new latency, or the packet pool
// growing: one allocation for the slab and one for its free list) stays
// within the budget.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	stringfigure "repro"
)

// steadyStateAllocBudget is the high-water allowance of one 2000-cycle
// window after warm-up. Measured in cycles 3000–5000: 1 at N64_low and the
// scenario point (a histogram growth), 2 at N256_light (one packet-pool
// growth), 0 elsewhere.
const steadyStateAllocBudget = 4

// TestNetsimSteadyStateAllocs counts every heap allocation of cycles
// 3000–5000 at each point of the netsim benchmark grid, plus the
// flow-accounting and rate-scenario variants.
func TestNetsimSteadyStateAllocs(t *testing.T) {
	type point struct {
		name        string
		n           int
		rate        float64
		session     bool
		flowBuckets int
		scenario    bool
	}
	var points []point
	for _, g := range netsimStepGrid {
		points = append(points, point{name: fmt.Sprintf("N%d_%s", g.n, g.load), n: g.n, rate: g.rate, session: g.session})
	}
	points = append(points,
		point{name: "Flow_N64_light", n: 64, rate: 0.01, flowBuckets: 4},
		point{name: "Scenario_N64_light", n: 64, rate: 0.01, scenario: true})
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			cfg := netsimStepConfig(t, p.n, p.session)
			cfg.FlowBuckets = p.flowBuckets
			sim := netsimStepSim(t, cfg, p.rate)
			sim.Run(1000)
			window := func() {
				for i := 0; i < 2000; i++ {
					if p.scenario {
						scenarioTick(sim, i, p.rate)
					}
					sim.Run(1)
				}
			}
			// AllocsPerRun runs the window once uncounted (cycles
			// 1000–3000, completing the benchmarks' 3000-cycle warm-up),
			// then counts one run exactly: cycles 3000–5000.
			allocs := testing.AllocsPerRun(1, window)
			if sim.Results().Deadlocked {
				t.Fatal("deadlocked")
			}
			t.Logf("%v allocations in cycles 3000-5000", allocs)
			if allocs > steadyStateAllocBudget {
				t.Errorf("%v heap allocations in cycles 3000-5000, budget %d: the steady-state core allocates (a per-cycle allocation reads >= 2000)",
					allocs, steadyStateAllocBudget)
			}
		})
	}
}

// TestNetsimColdSimAllocs counts a sweep point's cold start: construction
// of a fresh loaded N=256 simulator over shared routing tables, then 1000
// cycles of growth to the working set. It read 3 383 while New appended
// each router's port tables separately; with every table carved from
// arenas and the input-unit buffers inline, the whole cold start is 55
// allocations; the two router worklists are carved from the bitmask arena.
//
// The collector is off for the window. The cold simulator's few MB can
// start a collection inside it, and a cycle allocates for the runtime
// itself (a memory profile showed the unique package's map cleanup
// allocating once per cycle); whether one lands there depends on the heap
// earlier tests left, so with the collector on the count read 63 alone and
// 57 after TestNetsimSteadyStateAllocs.
func TestNetsimColdSimAllocs(t *testing.T) {
	const ceiling = 67
	cfg := netsimStepConfig(t, 256, true)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		sim := netsimStepSim(t, cfg, 0.20)
		sim.Run(1000)
		if sim.Results().Deadlocked {
			t.Fatal("deadlocked")
		}
	})
	t.Logf("%v allocations", allocs)
	if allocs > ceiling {
		t.Errorf("cold N256_loaded simulator: %v allocations over 1000 cycles, ceiling %d", allocs, ceiling)
	}
}

// TestNetworkBuildAllocs counts one paper-scale network build: topology
// generation, the design's adjacency and routing tables, the escape ring and
// the Network around them. It read 33 094 while every routing table kept a
// hash-map index and topology generation deduplicated wires through maps;
// with tables carved from one arena and per-node wire lists it read 5 212,
// four fifths of them (4 099) the design graph's per-node edge lists; with
// those lists carved from one allocation (graph.NewSized) it reads 1 125.
func TestNetworkBuildAllocs(t *testing.T) {
	const ceiling = 1300
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := stringfigure.New(stringfigure.WithNodes(1024), stringfigure.WithSeed(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations", allocs)
	if allocs > ceiling {
		t.Errorf("N=1024 network build: %v allocations, ceiling %d", allocs, ceiling)
	}
}

// TestSecondSessionReusesArenas guards the simulator arena free list
// (netsim.Sim.Release): the second sfperf synth-idle-n1024 session on one
// Network must allocate under a tenth of the first session's bytes. The
// first session's 5.9 MB are mostly the simulator's per-router tables,
// which the second takes back from the first; it read 1% of them. Without
// the free list both sessions allocate the same. The test runs at
// GOMAXPROCS 1, where the free list keeps one set, after a small session
// that evicts whatever earlier tests left, so the first session starts
// cold however the test binary is run.
func TestSecondSessionReusesArenas(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	uniform := stringfigure.SyntheticWorkload{Pattern: "uniform"}
	small, err := stringfigure.New(stringfigure.WithNodes(16), stringfigure.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.NewSession(stringfigure.SessionConfig{Rate: 0.1, Warmup: 10, Measure: 10}).Run(uniform); err != nil {
		t.Fatal(err)
	}
	net, err := stringfigure.New(stringfigure.WithNodes(1024), stringfigure.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	session := func(i int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg := stringfigure.SessionConfig{Rate: 0.0003, Warmup: 3000, Measure: 20000, Seed: stringfigure.PointSeed(1, i)}
		if _, err := net.NewSession(cfg).Run(uniform); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := session(0), session(1)
	t.Logf("first session %d bytes, second %d (%.1f%%)", first, second, 100*float64(second)/float64(first))
	if second*10 >= first {
		t.Errorf("second N=1024 session allocated %d bytes, the first %d: want under a tenth", second, first)
	}
}
