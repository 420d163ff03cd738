package stringfigure_test

// Benchmark harness of the public API and the simulator core: topology
// generation, routing, reconfiguration, whole sessions, the sweep pool,
// per-cycle netsim stepping and trace sessions. Timings only; nothing
// gates them. The paper's figures are regenerated and checked by the
// tests of internal/experiments and by cmd/sfexp, not here. External test
// package (dot-imported): it measures what callers of the public API pay.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	. "repro"
	"repro/internal/design"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkTopologyGeneration measures raw topology construction cost at
// the paper's maximum scale (1296 nodes).
func BenchmarkTopologyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sf, err := topology.NewPaperSF(1296, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = sf.Graph()
	}
}

// BenchmarkGreedyRouting measures per-route decision cost on a 1296-node
// network (the compute side of the compute+table hybrid).
func BenchmarkGreedyRouting(b *testing.B) {
	net := mustNew(b, WithNodes(1296), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 1296
		dst := (i*733 + 17) % 1296
		if src == dst {
			continue
		}
		if _, err := net.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconfiguration measures one gate-off/gate-on cycle including
// table updates on a 1296-node network.
func BenchmarkReconfiguration(b *testing.B) {
	net := mustNew(b, WithNodes(1296), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 1 + i%1294
		if err := net.GateOff(v); err != nil {
			b.Fatal(err)
		}
		if err := net.GateOn(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCycles measures raw simulator throughput
// (router-cycles per second) at 256 nodes under uniform load.
func BenchmarkSimulatorCycles(b *testing.B) {
	net := mustNew(b, WithNodes(256), WithSeed(1))
	sess := net.NewSession(SessionConfig{Rate: 0.2, Warmup: 200, Measure: 800, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Run(SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

// sweepBenchPoints is the 8-point injection-rate grid shared by the sweep
// benchmarks below: compare BenchmarkSweepSerial against
// BenchmarkSweepParallel at -cpu 4 to see the worker-pool speedup (the
// parallel sweep is the same deterministic per-point computation fanned
// over GOMAXPROCS goroutines). Both report points/s; the parallel
// benchmark additionally measures a serial reference pass and reports
// the end-to-end speedup as a metric.
func sweepBenchPoints() []Point {
	return RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28, 0.32})
}

var sweepBenchCfg = SessionConfig{Warmup: 500, Measure: 2000, Seed: 1}

// sweepBenchSerialPass runs the serial reference loop once: the same
// per-point sessions and seeds as Sweep, one at a time.
func sweepBenchSerialPass(b *testing.B, net *Network, points []Point) {
	b.Helper()
	for j, p := range points {
		cfg := sweepBenchCfg
		cfg.Seed = PointSeed(sweepBenchCfg.Seed, j)
		cfg.Rate = p.Rate
		res, err := net.NewSession(cfg).Run(p.Workload)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

// BenchmarkSweepSerial is the serial reference loop.
func BenchmarkSweepSerial(b *testing.B) {
	net := mustNew(b, WithNodes(64), WithSeed(1))
	points := sweepBenchPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepBenchSerialPass(b, net, points)
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepParallel fans the same 8 points across GOMAXPROCS workers
// through the public Sweep API and reports the speedup over a serial
// reference pass measured in the same process. On a single-CPU host the
// comparison is meaningless (the pool degenerates to the serial loop), so
// it skips rather than report a misleading ~1.0x.
func BenchmarkSweepParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("parallel sweep speedup needs GOMAXPROCS > 1 (run with -cpu 4)")
	}
	net := mustNew(b, WithNodes(64), WithSeed(1))
	points := sweepBenchPoints()
	// Untimed serial baseline for the speedup metric.
	serialStart := time.Now()
	sweepBenchSerialPass(b, net, points)
	serialSec := time.Since(serialStart).Seconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range net.SweepAll(sweepBenchCfg, points, 0) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Deadlocked {
				b.Fatal("deadlock")
			}
		}
	}
	parallelSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
	if parallelSec > 0 {
		b.ReportMetric(serialSec/parallelSec, "speedup")
	}
}

// netsimStepConfig is the simulator configuration of the netsim benchmarks
// for a String Figure network of n nodes. The historical grid points step
// the four-port uni-directional wire variant with the simulator's five-flit
// default packets; session selects what the session layer runs instead —
// the paper's design (design.Spec{N: n}: PortsForN ports, bi-directional)
// and one-flit request packets.
func netsimStepConfig(tb testing.TB, n int, session bool) netsim.Config {
	tb.Helper()
	spec := design.Spec{N: n, Ports: 4, Seed: 1, Unidirectional: true}
	if session {
		spec = design.Spec{N: n, Seed: 1}
	}
	d, err := design.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := d.NetCfg(1)
	if session {
		cfg.PacketFlits = 1
	}
	return cfg
}

// netsimStepSim builds a fresh simulator over cfg under uniform traffic at
// the given injection rate.
func netsimStepSim(tb testing.TB, cfg netsim.Config, rate float64) *netsim.Sim {
	tb.Helper()
	sim, err := netsim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", len(cfg.Out))
	if err != nil {
		tb.Fatal(err)
	}
	sim.SetPattern(rate, pat)
	return sim
}

// netsimStepBench drives the raw simulator one cycle per benchmark op.
// Warmup fills the network to its steady state (queues at their high-water
// marks, the packet pool primed, flow histograms at their latency
// high-water, the route cache warm), after which the core runs without
// per-cycle heap allocations — TestNetsimSteadyStateAllocs holds the exact
// count of the cycles after the same warm-up, and cycles/s is the
// perf-trajectory headline. flowBuckets > 0 enables per-flow accounting
// (the BenchmarkNetsimStepFlow variant), pinning the accounting-on overhead
// next to the observability-off ceiling.
func netsimStepBench(b *testing.B, n int, rate float64, session, reference bool, flowBuckets int) {
	b.Helper()
	cfg := netsimStepConfig(b, n, session)
	cfg.ReferenceCore = reference
	cfg.FlowBuckets = flowBuckets
	sim := netsimStepSim(b, cfg, rate)
	sim.Run(3000)
	if sim.Results().Deadlocked {
		b.Fatal("deadlocked during warmup")
	}
	before := flitMoves(sim.Results())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	reportNsPerFlit(b, flitMoves(sim.Results())-before)
	if sim.Results().Deadlocked {
		b.Fatal("deadlocked during measurement")
	}
}

// flitMoves is the flit work of a run: every forwarded flit, onto a link
// (FlitHops) or out of the network (FlitsDelivered).
func flitMoves(res netsim.Results) int64 { return res.FlitHops + res.FlitsDelivered }

// reportNsPerFlit reports the timed wall time per flit move. Where every
// router is busy it is the per-flit path length of the core, comparable
// across scales; near idle it also carries each cycle's fixed cost.
func reportNsPerFlit(b *testing.B, moves int64) {
	if moves > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/flit")
	}
}

// netsimStepGrid is the benchmark load matrix, in packets per node per
// cycle. "low" is the near-idle end (N=1024: sfperf's synth-idle rate),
// where the event core's idle-router skipping dominates, and "light" is
// 1-5% of the loaded packet rate — most routers still idle most cycles.
// "loaded" is the regime the figures' rate sweeps and saturation searches
// run in, configured the way sessions run it (see netsimStepConfig): rate
// 0.20, sfperf's synth-loaded-n256 — every router busy every cycle, near
// but under saturation; at N=64 its whole state stays cache-resident, so
// there the cost per flit is the core's path length alone. All three
// reach a stable in-flight population, which an allocation count needs to
// be meaningful (an ever-growing source-queue backlog allocates forever on
// any core).
var netsimStepGrid = []struct {
	n       int
	load    string
	rate    float64
	session bool
}{
	{64, "low", 0.00125, false}, {64, "light", 0.01, false}, {64, "loaded", 0.20, true},
	{256, "low", 0.0006, false}, {256, "light", 0.005, false}, {256, "loaded", 0.20, true},
	{1024, "low", 0.0003, false}, {1024, "light", 0.0025, false}, {1024, "loaded", 0.20, true},
}

// BenchmarkNetsimStep is the netsim hot-loop benchmark grid: cycles/s and
// allocs/op at N=64/256/1024 from near-idle to loaded, and each cycle
// phase's wall time (see reportPhases).
func BenchmarkNetsimStep(b *testing.B) {
	for _, g := range netsimStepGrid {
		b.Run(fmt.Sprintf("N%d_%s", g.n, g.load), func(b *testing.B) {
			netsimStepBench(b, g.n, g.rate, g.session, false, 0)
			reportPhases(b, g.n, g.rate, g.session)
		})
	}
}

// reportPhases reports the event core's four cycle phases as ns/cycle:
// deliver, inject, drain and route (route and arbitrate, which interleave
// per router). A twin of the measured simulator runs the same warm-up and
// b.N cycles with netsim.Config.PhaseClock set, outside the timed region,
// so the clock reads cost the headline cycles/s and ns/flit nothing.
func reportPhases(b *testing.B, n int, rate float64, session bool) {
	b.Helper()
	cfg := netsimStepConfig(b, n, session)
	start := time.Now()
	cfg.PhaseClock = func() int64 { return int64(time.Since(start)) }
	sim := netsimStepSim(b, cfg, rate)
	sim.Run(3000)
	before := sim.Stats()
	sim.Run(int64(b.N))
	after := sim.Stats()
	for _, p := range []struct {
		unit          string
		after, before int64
	}{
		{"deliver-ns/cycle", after.DeliverNs, before.DeliverNs},
		{"inject-ns/cycle", after.InjectNs, before.InjectNs},
		{"drain-ns/cycle", after.DrainNs, before.DrainNs},
		{"route-ns/cycle", after.RouteNs, before.RouteNs},
	} {
		b.ReportMetric(float64(p.after-p.before)/float64(b.N), p.unit)
	}
}

// BenchmarkNetsimStepCold is the loaded N=256 point the way a sweep point
// runs it: each op builds a fresh simulator over shared routing tables —
// empty queues, empty packet pool, cold private route cache — and runs 1000
// cycles with no warm-up. The warm grid cannot see what this measures:
// construction, growth to the working set (allocs/op is the whole
// session's; TestNetsimColdSimAllocs holds it under a ceiling) and the
// price of every cold routing decision. Its ns/flit charges all of that
// to the run's flit moves.
func BenchmarkNetsimStepCold(b *testing.B) {
	b.Run("N256_loaded", func(b *testing.B) {
		const cycles = 1000
		cfg := netsimStepConfig(b, 256, true)
		moves := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim := netsimStepSim(b, cfg, 0.20)
			sim.Run(cycles)
			res := sim.Results()
			if res.Deadlocked {
				b.Fatal("deadlocked")
			}
			moves += flitMoves(res)
		}
		b.ReportMetric(float64(b.N*cycles)/b.Elapsed().Seconds(), "cycles/s")
		reportNsPerFlit(b, moves)
	})
}

// BenchmarkNetsimStepFlow is the N=64 light-load grid point with per-flow
// accounting enabled (4×4 src/dst buckets, the sfexp default): the delta
// against NetsimStep/N64_light is the observability overhead. The
// accounting path stays allocation-free in steady state — the flow
// histograms live in a pre-carved arena that reaches its latency high-water
// mark during warmup — which TestNetsimSteadyStateAllocs counts.
func BenchmarkNetsimStepFlow(b *testing.B) {
	b.Run("N64_light", func(b *testing.B) {
		netsimStepBench(b, 64, 0.01, false, false, 4)
	})
}

// BenchmarkNetsimStepScenario is the N=64 light-load grid point with a rate
// schedule armed (scenarioTick). SetRate only restarts the geometric
// skip-sampling trial, so the scheduled path must stay as allocation-free as
// the unscheduled core (TestNetsimSteadyStateAllocs counts both); the
// cycles/s delta against NetsimStep/N64_light is the cost of arming a
// scenario at all.
func BenchmarkNetsimStepScenario(b *testing.B) {
	b.Run("N64_light", func(b *testing.B) {
		const rate = 0.01
		sim := netsimStepSim(b, netsimStepConfig(b, 64, false), rate)
		sim.Run(3000)
		if sim.Results().Deadlocked {
			b.Fatal("deadlocked during warmup")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scenarioTick(sim, i, rate)
			sim.Run(1)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		if sim.Results().Deadlocked {
			b.Fatal("deadlocked during measurement")
		}
	})
}

// scenarioTick applies the rate schedule of the scenario grid point before
// cycle i: every 1024 cycles the injection rate re-sets, alternating ±25%
// around the grid rate — the way a compiled diurnal or bursty scenario
// drives the core between Run slices.
func scenarioTick(sim *netsim.Sim, i int, rate float64) {
	if i%1024 == 0 {
		if i%2048 == 0 {
			sim.SetRate(rate * 0.75)
		} else {
			sim.SetRate(rate * 1.25)
		}
	}
}

// BenchmarkNetsimStepRef runs the same N=1024 low-load point on the
// reference full-scan core: the ratio of NetsimStep/N1024_low to this
// number is the event-scheduling speedup (same injection scheme, same
// memory layout, full per-router scan instead of worklists). The
// pre-rewrite core was slower still — it also paid per-node injection
// draws and per-cycle allocations.
func BenchmarkNetsimStepRef(b *testing.B) {
	b.Run("N1024_low", func(b *testing.B) {
		netsimStepBench(b, 1024, 0.0003, false, true, 0)
	})
}

// traceSessionColdSeed hands every cold iteration, across the framework's
// repeated calls with growing b.N, a session seed no earlier one used. The
// stride keeps the per-socket seeds (Seed+i, Seed+100+i) of different
// sessions apart.
var traceSessionColdSeed int64 = 1 << 20

// BenchmarkTraceSession measures one closed-loop Figure 12 co-simulation
// through the public API at the session default of 4 sockets. cold draws a
// fresh seed per iteration, so all four traces are synthesized (in parallel
// on the process's synthesis slots) before the DRAM-timed replay; warm
// repeats one seed, so after the first iteration the traces come from the
// process-wide store and what remains is the remap and the replay — the
// cost of the second to fifth design of a Figure 12 row.
func BenchmarkTraceSession(b *testing.B) {
	net := mustNew(b, WithNodes(64), WithSeed(1))
	run := func(b *testing.B, seed func() int64) {
		cfg := SessionConfig{Ops: 800, Sockets: 4, Window: 8, Threads: 4, MaxCycles: 20_000_000}
		for i := 0; i < b.N; i++ {
			cfg.Seed = seed()
			res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "grep"})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.IPC, "ipc")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func() int64 { traceSessionColdSeed += 1000; return traceSessionColdSeed })
	})
	b.Run("warm", func(b *testing.B) {
		run(b, func() int64 { return 1 })
	})
}
