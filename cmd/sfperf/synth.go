package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// synthBench is the open-loop synthetic family: one String Figure network,
// every op one Session.Run of uniform traffic with its own session seed.
// With storm set the op also carries the failure-storm scenario and a
// telemetry sink, which sends it down the scheduled run loop.
type synthBench struct {
	nodes           int
	rate            float64
	warmup, measure int64
	storm           bool
	// loadedProbe adds the N=1024 loaded-regime probe to the traced run.
	loadedProbe bool
	seed        int64
	scale       float64

	net *stringfigure.Network

	// Layer-probe state, built on the first probe.
	d  *design.Design
	rn *reconfig.Network

	runNs, measureNs, runCycles, flitHops, mallocs int64
}

func (b *synthBench) setUp() error {
	net, err := stringfigure.New(stringfigure.WithNodes(b.nodes), stringfigure.WithSeed(b.seed))
	b.net = net
	return err
}

func (b *synthBench) close() { b.net = nil }

// stormCenter is the node the failure storm is centred on.
const stormCenter = 21

// stormScenario is the scenario-storm-n64 schedule: a correlated failure
// storm gates the nodes within 4 of stormCenter off at cycle 3000 and back
// on 32000 cycles later, under a diurnal rate swing of +-50% every 10000.
func stormScenario() []stringfigure.ScenarioSpec {
	return []stringfigure.ScenarioSpec{
		stringfigure.FailureStorm(3000, stormCenter, 4, 32000),
		stringfigure.DiurnalRate(10000, 0.5),
	}
}

func (b *synthBench) config(i int) stringfigure.SessionConfig {
	cfg := stringfigure.SessionConfig{
		Rate: b.rate, Warmup: b.warmup, Measure: b.measure,
		Seed: stringfigure.PointSeed(b.seed, i),
	}
	if b.storm {
		cfg.Scenario = stormScenario()
		cfg.FlowBuckets = 4
	}
	return cfg
}

// sessionOut turns a session Result into an op outcome after the health
// checks every synthetic op must pass.
func sessionOut(res stringfigure.Result) (opOut, error) {
	if res.Deadlocked {
		return opOut{}, fmt.Errorf("network deadlocked")
	}
	if float64(res.Delivered) < 0.99*float64(res.Injected) {
		return opOut{}, fmt.Errorf("delivered %d of %d injected packets, under 99%%", res.Delivered, res.Injected)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return opOut{}, err
	}
	return opOut{result: enc, counts: simCounts{
		Cycles: res.Cycles, Injected: res.Injected, Delivered: res.Delivered,
		Escaped: res.Escaped, Dropped: res.Dropped,
	}}, nil
}

func (b *synthBench) op(ctx context.Context, i int) (opOut, error) {
	cfg := b.config(i)
	var snaps, gateOff, gateOn int
	if b.storm {
		cfg = cfg.WithTelemetry(1000, func(t stringfigure.TelemetrySnapshot) {
			snaps++
			for _, ev := range t.Scenario {
				switch ev.Kind {
				case "gate-off":
					gateOff++
				case "gate-on":
					gateOn++
				}
			}
		})
	}
	res, err := b.net.NewSession(cfg).RunContext(ctx, stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		return opOut{}, err
	}
	out, err := sessionOut(res)
	if err != nil {
		return opOut{}, err
	}
	if b.storm && (gateOff == 0 || gateOn == 0) {
		return opOut{}, fmt.Errorf("storm applied %d gate-offs and %d gate-ons, want at least one of each", gateOff, gateOn)
	}
	out.snapshots = snaps
	return out, nil
}

// sfNetConfig is the simulator configuration the session layer assembles
// for a full-scale reconfigurable String Figure network: SFConfig (which
// builds the per-session routing tables) with the deployed network's
// adjacency, router and escape ring.
func sfNetConfig(rec *recorder, d *design.Design, rn *reconfig.Network, seed int64) netsim.Config {
	var cfg netsim.Config
	rec.time("routing.tables_build", func() { cfg = netsim.SFConfig(d.SF, seed) })
	cfg.Out = rn.OutNeighbors()
	cfg.Alg = rn.Router
	cfg.VCPolicy = rn.Router.VirtualChannel
	cfg.EscapeRoute = netsim.RingEscape(d.SF, rn.AliveSlice())
	return cfg
}

// uniformInjector is the session layer's router-level uniform pattern on a
// design whose routers each host exactly one node.
func uniformInjector(nodes int) (func(src int, rng *rand.Rand) (int, bool), error) {
	pat, err := traffic.NewPattern("uniform", nodes)
	if err != nil {
		return nil, err
	}
	return func(src int, rng *rand.Rand) (int, bool) {
		dst, ok := pat(src, rng)
		if !ok || dst == src {
			return 0, false
		}
		return dst, true
	}, nil
}

// probe recomposes op i as a plain open-loop run from the layers under
// the session: SFConfig, netsim.New, SetPattern, Run. For the plain
// workloads the recomposition must inject and deliver exactly what the
// product op did; the storm op runs a schedule the probe does not replay,
// so only its cycle count must agree, and the probe adds the same product
// op with the telemetry sink off.
func (b *synthBench) probe(ctx context.Context, i int, rec *recorder, product opOut) error {
	if b.d == nil {
		d, err := design.Build(design.Spec{Kind: "sf", N: b.nodes, Seed: b.seed})
		if err != nil {
			return err
		}
		b.d, b.rn = d, reconfig.New(d.SF)
	}
	seed := stringfigure.PointSeed(b.seed, i)
	inject, err := uniformInjector(b.nodes)
	if err != nil {
		return err
	}
	var res netsim.Results
	var before, after runtime.MemStats
	rec.time("probe", func() {
		cfg := sfNetConfig(rec, b.d, b.rn, seed)
		cfg.PacketFlits = 1 // the session default: one-flit request packets
		var sim *netsim.Sim
		rec.time("netsim.new", func() { sim, err = netsim.New(cfg) })
		if err != nil {
			return
		}
		sim.SetPattern(b.rate, inject)
		runtime.ReadMemStats(&before)
		b.runNs += rec.time("netsim.run", func() {
			sim.Run(b.warmup)
			sim.ResetStats()
			b.measureNs += rec.time("netsim.run.measure", func() { sim.Run(b.measure) }).Nanoseconds()
		}).Nanoseconds()
		runtime.ReadMemStats(&after)
		res = sim.Results()
	})
	if err != nil {
		return err
	}
	b.runCycles += b.warmup + b.measure
	b.flitHops += res.FlitHops
	b.mallocs += int64(after.Mallocs - before.Mallocs)
	if res.Cycles != product.counts.Cycles {
		return fmt.Errorf("layer probe ran %d cycles, the product op %d", res.Cycles, product.counts.Cycles)
	}
	if !b.storm {
		if res.Injected != product.counts.Injected || res.Delivered != product.counts.Delivered {
			return fmt.Errorf("layer probe injected/delivered %d/%d, the product op %d/%d",
				res.Injected, res.Delivered, product.counts.Injected, product.counts.Delivered)
		}
		return nil
	}
	var quiet stringfigure.Result
	rec.time("session.run_quiet", func() {
		quiet, err = b.net.NewSession(b.config(i)).RunContext(ctx, stringfigure.SyntheticWorkload{Pattern: "uniform"})
	})
	if err != nil {
		return err
	}
	out, err := sessionOut(quiet)
	if err != nil {
		return err
	}
	if !bytes.Equal(out.result, product.result) {
		return fmt.Errorf("result differs with the telemetry sink off")
	}
	return nil
}

func (b *synthBench) finish(rec *recorder, t totals, ops []timedOp, m map[string]float64) error {
	n := float64(len(ops))
	m["routing.tables_build_ms"] = t.ms["routing.tables_build"] / n
	m["netsim.new_ms"] = t.ms["netsim.new"] / n
	m["netsim.run_ms"] = t.ms["netsim.run"] / n
	m["netsim.ns_per_cycle"] = ratio(float64(b.runNs), float64(b.runCycles))
	m["netsim.allocs_per_cycle"] = ratio(float64(b.mallocs), float64(b.runCycles))
	m["netsim.ns_per_flit_hop"] = ratio(float64(b.measureNs), float64(b.flitHops))
	m["netsim.share"] = ratio(t.ms["netsim.run"], t.ms["session.run"])

	spec := design.Spec{Kind: "sf", N: b.nodes, Seed: b.seed}
	var err error
	m["design.build_ms"] = medianMs(5, func() { _, err = design.Build(spec) })
	if err != nil {
		return err
	}
	m["topology.generate_ms"] = medianMs(5, func() {
		_, err = topology.NewStringFigure(topology.Config{
			N: b.nodes, Ports: topology.PortsForN(b.nodes), Seed: b.seed, Bidirectional: true, Shortcuts: true,
		})
	})
	if err != nil {
		return err
	}
	if b.storm {
		return b.finishStorm(t, ops, m)
	}
	if b.loadedProbe {
		return b.finishLoaded(rec, m)
	}
	return nil
}

// finishStorm measures what only the scheduled path pays for: compiling
// the scenario, one gate-off plus gate-on on a network of the same size,
// and the telemetry sink (the product op over the same op, sink off).
func (b *synthBench) finishStorm(t totals, ops []timedOp, m map[string]float64) error {
	snaps := 0
	for _, op := range ops {
		snaps += op.out.snapshots
	}
	m["telemetry.snapshots"] = float64(snaps)
	m["telemetry.overhead_ratio"] = ratio(t.ms["session.run"], t.ms["session.run_quiet"])

	// The public specs lowered the way the session layer lowers them.
	var specs []scenario.Spec
	for _, sp := range stormScenario() {
		specs = append(specs, scenario.Spec{
			Kind: sp.Kind, Start: sp.Start, Center: sp.Center, Radius: sp.Radius, Recover: sp.Recover,
			Period: sp.Period, Depth: sp.Depth,
		})
	}
	timing := reconfig.DefaultTiming()
	envOf := scenario.Env{
		Nodes: b.nodes, Total: b.warmup + b.measure, Seed: b.seed,
		Wake:        int64(timing.LinkWakeNs / netsim.CycleNs),
		MinInterval: int64(timing.MinIntervalNs / netsim.CycleNs),
	}
	var err error
	m["scenario.compile_us"] = 1e3 * medianMs(33, func() { _, err = scenario.Compile(specs, envOf) })
	if err != nil {
		return err
	}

	net, err := stringfigure.New(stringfigure.WithNodes(b.nodes), stringfigure.WithSeed(b.seed))
	if err != nil {
		return err
	}
	m["reconfig.gate_cycle_us"] = 1e3 * medianMs(33, func() {
		if err == nil {
			err = net.GateOff(stormCenter)
		}
		if err == nil {
			err = net.GateOn(stormCenter)
		}
	})
	return err
}

// finishLoaded answers the roadmap's N=1024 mid-load question with a
// number: simulated cycles per host second at N=1024 and rate 0.20, from
// two Run slices after a short fill.
func (b *synthBench) finishLoaded(rec *recorder, m map[string]float64) error {
	const nodes, rate = 1024, 0.20
	slice := max(int64(8), int64(150*b.scale))
	d, err := design.Build(design.Spec{Kind: "sf", N: nodes, Seed: b.seed})
	if err != nil {
		return err
	}
	cfg := netsim.SFConfig(d.SF, b.seed)
	cfg.PacketFlits = 1
	sim, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	inject, err := uniformInjector(nodes)
	if err != nil {
		return err
	}
	sim.SetPattern(rate, inject)
	sim.Run(slice)
	ns := rec.time("netsim.n1024_loaded", func() {
		sim.Run(slice)
		sim.Run(slice)
	}).Nanoseconds()
	m["netsim.n1024_loaded_cycles_per_s"] = float64(2*slice) / (float64(ns) / 1e9)
	return nil
}
