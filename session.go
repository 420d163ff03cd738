package stringfigure

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/energy"
	"repro/internal/memnode"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SessionConfig parameterizes one simulation run. The zero value is usable:
// every field has a sensible default filled in by NewSession.
type SessionConfig struct {
	// Rate is the synthetic injection rate in packets/router/cycle (default
	// 0.1). Trace-driven workloads ignore it (they are closed-loop: the
	// offered load emerges from the replay).
	Rate float64
	// Warmup and Measure are the synthetic warm-up and measurement windows
	// in network cycles (defaults 1000 and 4000).
	Warmup, Measure int64
	// PacketFlits is the synthetic packet size in flits (default 1, the
	// request-size normalization the paper's injection-rate axes use).
	PacketFlits int
	// AdaptiveThreshold overrides the adaptive-routing queue-occupancy
	// threshold (0 keeps the paper's 50% default).
	AdaptiveThreshold float64
	// Seed drives all run randomness: simulator injection, trace synthesis
	// and workload models. Equal seeds reproduce identical runs.
	Seed int64

	// Ops is the per-socket trace length for trace-driven workloads
	// (default 2000; the paper collects 100k total).
	Ops int
	// Sockets is the CPU-socket count (default 4), clamped to the alive
	// router count.
	Sockets int
	// Window is the per-socket outstanding-read budget (default 16).
	Window int
	// Threads models cores per socket: instruction gaps shrink by this
	// factor, making the replay bandwidth-bound (default 4).
	Threads int
	// MaxCycles bounds a trace-driven run (default 40M network cycles).
	MaxCycles int64

	// TelemetryEvery is the interval, in network cycles, between the live
	// snapshots delivered to WithTelemetry sinks (default 1000). It has no
	// effect until a sink is attached.
	TelemetryEvery int64
	// FlowBuckets enables flow-level attribution on the telemetry stream:
	// nodes fold into this many src/dst buckets (clamped to the node
	// count) and every snapshot carries the interval's per-flow latency/
	// hop deltas plus per-link and per-router utilization (see
	// TelemetrySnapshot.Flows/Links/Routers). 0 disables. Attribution is
	// observational — Results stay bit-identical with it on or off — and,
	// like TelemetryEvery, it has no effect until a sink is attached.
	FlowBuckets int
	// TraceSampleEvery samples packet-lifecycle traces onto the telemetry
	// stream: packets whose id divides by this value record their inject/
	// hop/escape/drop/deliver events into TelemetrySnapshot.Trace.
	// Sampling keys on the deterministic packet id (no RNG), so tracing
	// on/off leaves Results bit-identical. 0 disables; needs a sink.
	TraceSampleEvery int64
	// Scenario attaches declarative scenarios — churn traces, failure
	// storms, diurnal/bursty rate modulation, the S2 regeneration
	// baseline — compiled into a deterministic event schedule before the
	// run starts (see ScenarioSpec and the ChurnTrace/Churn/FailureStorm/
	// DiurnalRate/BurstyRate/RegenerateS2 constructors). A schedule that
	// gates nodes (reconfigurable designs only) reconfigures the run's own
	// copy of the network's engine, so the Network keeps its alive mask and
	// tables and other sessions run beside it as beside a plain run; the
	// schedule compiles against the alive mask of the epoch the run starts
	// on. Rate-modulating scenarios run on any design. Invalid
	// specs surface as ErrScenario when the run starts. Pair with telemetry
	// to watch the latency transient a reconfiguration causes.
	Scenario []ScenarioSpec

	// referenceCore runs the simulation on the netsim reference core — the
	// full-scan, per-flit-routing slow path kept for differential testing —
	// instead of the event-driven core. Results are bit-identical by
	// contract (the cross-core determinism suite enforces it), so only the
	// package's own tests set it, to run both cores.
	referenceCore bool

	// onTelemetry, when set (WithTelemetry), receives the interval
	// snapshots. Unexported so that it stays off the sweep wire:
	// a SessionConfig travels to remote workers as itself and gob skips
	// unexported fields, which is the sanctioned way to keep a value local
	// (wireJob.Telemetry asks the worker to attach its own forwarding sink).
	// Every exported field must survive gob — TestWireRoundTripByReflection
	// fails, naming the field, for one that does not.
	onTelemetry func(TelemetrySnapshot)
}

// defaultMaxCycles is the closed-loop cycle budget (SessionConfig.MaxCycles).
const defaultMaxCycles = 40_000_000

func (c *SessionConfig) fill() {
	if c.Rate <= 0 {
		c.Rate = 0.1
	}
	if c.Warmup <= 0 {
		c.Warmup = 1000
	}
	if c.Measure <= 0 {
		c.Measure = 4000
	}
	if c.PacketFlits <= 0 {
		c.PacketFlits = 1
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.Sockets <= 0 {
		c.Sockets = 4
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = defaultMaxCycles
	}
	if c.TelemetryEvery <= 0 {
		c.TelemetryEvery = 1000
	}
}

// Session owns one simulation run on a Network: a configuration snapshot
// with its RNG seed and warm-up/measurement windows. Sessions are cheap;
// create one per run. A single *Network can serve many sessions
// concurrently, gated or not: a run loads the network's current epoch when
// it starts and keeps it to its end, so GateOff, GateOn and SetMounted
// neither wait for running sessions nor change what they simulate.
type Session struct {
	net *Network
	cfg SessionConfig
}

// NewSession prepares a run against the network with defaults filled in.
func (n *Network) NewSession(cfg SessionConfig) *Session {
	cfg.fill()
	return &Session{net: n, cfg: cfg}
}

// Config returns the session's effective (default-filled) configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// Run executes the workload under this session and returns the unified
// result.
func (s *Session) Run(w Workload) (Result, error) {
	return s.RunContext(context.Background(), w)
}

// RunContext executes the workload with cooperative cancellation: the
// simulation checks ctx between cycle chunks, so long trace runs and sweep
// points abort promptly when the context is canceled (returning ctx.Err()).
func (s *Session) RunContext(ctx context.Context, w Workload) (Result, error) {
	sess := s
	if s.cfg.onTelemetry != nil {
		// Stamp the run's identity onto every snapshot before it reaches
		// the sink (inner wrappers — the sweep's point stamp — run after).
		cfg := s.cfg
		inner := cfg.onTelemetry
		name, seed := w.Name(), cfg.Seed
		cfg.onTelemetry = func(t TelemetrySnapshot) {
			t.Workload = name
			t.Seed = seed
			inner(t)
		}
		sess = &Session{net: s.net, cfg: cfg}
	}
	res, err := w.run(ctx, sess)
	if err != nil {
		return Result{}, err
	}
	res.Workload = w.Name()
	res.Seed = s.cfg.Seed
	return res, nil
}

// Result is the unified outcome of one session run. Synthetic workloads
// fill the network-side metrics; trace-driven workloads additionally fill
// the memory-system metrics (IPC, read latency, DRAM energy).
type Result struct {
	// Workload and Seed identify the run; Rate is the swept injection rate
	// (synthetic) or 0 (closed-loop).
	Workload string
	Rate     float64
	Seed     int64

	// Network-side metrics.
	Cycles        int64
	Injected      int64
	Delivered     int64
	AvgLatencyNs  float64
	P90LatencyNs  float64
	AvgHops       float64
	ThroughputFPC float64 // delivered flits per node per cycle
	Escaped       int64   // escape-subnetwork diversions (deadlock pressure)
	Dropped       int64   // packets dropped as unroutable (reconfig windows)
	Deadlocked    bool

	// Memory-system metrics (trace-driven runs only).
	IPC              float64
	AvgReadLatencyNs float64
	DRAMAccesses     int64
	ReadsCompleted   int64
	TotalInstrs      int64

	// Dynamic-energy split from internal/energy (Table I accounting,
	// radix-corrected pJ/flit-hop).
	NetworkEnergyPJ float64
	DRAMEnergyPJ    float64
	TotalEnergyPJ   float64
	EDP             float64 // pJ x ns

	// Err is set instead of a separate return value when the Result is
	// streamed from Sweep.
	Err error `json:"-"`
}

// simConfig returns the simulator configuration of one run on the epoch:
// its template with the session's seed, threshold and core. Under a gate
// rig it routes on the rig's engine copy instead, over the union of the
// wires every phase of the schedule activates, with the escape routes of
// the starting mask and no route cache: a rig's tables change mid-run, so
// its simulator keeps a private one.
func (ep *epoch) simConfig(cfg SessionConfig, rig *gateRig) netsim.Config {
	sc := ep.sim
	sc.Seed = cfg.Seed
	if rig != nil {
		sc.Alg, sc.VCPolicy = rig.net.Router, rig.net.Router.VirtualChannel
		sc.Out = rig.out
		sc.EscapeRoute = rig.escapeFor(ep.alive)
		sc.Routes = nil
	}
	if cfg.AdaptiveThreshold > 0 {
		sc.AdaptiveThreshold = cfg.AdaptiveThreshold
	}
	sc.ReferenceCore = cfg.referenceCore
	return sc
}

// runSynthetic drives one open-loop synthetic-traffic simulation. The
// pattern draws memory-node destinations; concentration maps them to
// routers: each injecting router picks uniformly among its hosted alive
// nodes as the source, so concentrated FB/AFB routers represent all their
// nodes' traffic. patName is the pattern's rebuildable name ("" for
// function workloads, which the S2 regeneration scenario rejects —
// regenerating swaps the node count the traffic draws over).
func (n *Network) runSynthetic(ctx context.Context, cfg SessionConfig, patName string, pat traffic.Pattern) (Result, error) {
	ep := n.cur.Load()
	sch, err := resolveSchedule(cfg, scenarioEnv(n.d.N, ep.alive, cfg.Seed), false)
	if err != nil {
		return Result{}, err
	}
	if sch.Regen != nil {
		return n.runRegen(ctx, ep, cfg, patName, pat, sch.Regen)
	}
	res, err := n.runOpenLoop(ctx, ep, cfg, pat, &scenarioRecorder{}, sch, 0, cfg.Warmup+cfg.Measure, cfg.Rate)
	if err != nil {
		return Result{}, err
	}
	return n.syntheticResult(res, cfg.Rate), nil
}

// runOpenLoop simulates one open-loop stretch on epoch ep of this network:
// a fresh simulator injecting pat at rate0 runs `end` cycles under sch's
// gate and rate events, with statistics reset where the warm-up ends.
// offset is the run cycle this simulator's cycle 0 stands for (non-zero
// only for the second phase of an S2 regeneration): the warm-up boundary
// and telemetry stamps shift by it, sch's cycles are already on the
// simulator's clock. sch was compiled against ep's alive mask.
//
// Gate events swap rebuilt tables into the rig's router at their cycle;
// packets already in flight route around the reconfiguration (or divert
// to the escape subnetwork, or drop as unroutable), which is exactly the
// transient the telemetry stream watches.
func (n *Network) runOpenLoop(ctx context.Context, ep *epoch, cfg SessionConfig, pat traffic.Pattern, rec *scenarioRecorder,
	sch scenario.Schedule, offset, end int64, rate0 float64) (netsim.Results, error) {
	rig, err := n.newGateRig(ep, sch, rec)
	if err != nil {
		return netsim.Results{}, err
	}
	simCfg := ep.simConfig(cfg, rig)
	simCfg.PacketFlits = cfg.PacketFlits
	wireTelemetry(&simCfg, rec.wrap(cfg, offset), cfg.Rate, nil)
	sim, err := netsim.New(simCfg)
	if err != nil {
		return netsim.Results{}, err
	}
	// Nothing reads the simulator once its Results are copied out, so its
	// arenas go back for the next session's New however the run ends.
	defer sim.Release()
	// Injection liveness follows the schedule: gated nodes neither source
	// nor sink new traffic from the moment their event applies (the
	// injector reads the rig's aliveNow, which each gate event swaps).
	// Gate-free runs filter by their epoch's mask.
	alive := &ep.alive
	if rig != nil {
		alive = &rig.aliveNow
	}
	sim.SetPattern(rate0, n.newInjector(pat, alive).next)

	// The timeline; the stable sort keeps reset, gates, rates in that order
	// within one cycle.
	var acts []action
	if w := cfg.Warmup - offset; w >= 0 {
		acts = append(acts, action{w, func() error { sim.ResetStats(); return nil }})
	}
	acts = append(acts, rig.attach(sim)...)
	for _, ev := range sch.Rates {
		acts = append(acts, action{ev.Cycle, func() error {
			rate := cfg.Rate * ev.Scale
			sim.SetRate(rate)
			rec.add(scenario.Event{Cycle: ev.Cycle + offset, Kind: scenario.EventRate, Rate: rate})
			return nil
		}})
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].cycle < acts[j].cycle })
	st := stepper{sim: sim, slice: simChunk, run: func(k int64) error { sim.Run(k); return nil }}
	if err := drive(ctx, st, end, acts); err != nil {
		return netsim.Results{}, err
	}
	return sim.Results(), nil
}

// injector adapts a memory-node traffic pattern to router-level injection:
// each injecting router picks the source uniformly among its hosted nodes
// (so concentrated FB/AFB routers represent all their nodes' traffic),
// filters by node liveness, and drops intra-router traffic. Everything but
// the pattern is data read once per session, so an injection costs one
// call into the pattern.
type injector struct {
	pat traffic.Pattern
	// hosted[r] are the memory nodes router r hosts (Design.RouterNodes);
	// router[v] is node v's router, their inverse.
	hosted [][]int
	router []int
	// alive is the session's node mask, behind a pointer so that a gated
	// run's injector follows the rig's swaps.
	alive *[]bool
}

// newInjector returns the injector of pat on this network under the alive
// mask *alive.
func (n *Network) newInjector(pat traffic.Pattern, alive *[]bool) *injector {
	inj := &injector{pat: pat, hosted: n.d.RouterNodes, router: make([]int, n.d.N), alive: alive}
	for r, nodes := range inj.hosted {
		for _, v := range nodes {
			inj.router[v] = r
		}
	}
	return inj
}

// next is the simulator's pattern: the destination router of one injection
// at srcRouter, or false when there is none.
func (inj *injector) next(srcRouter int, rng *rand.Rand) (int, bool) {
	// Pick the source memory node among the router's hosted nodes.
	nodes := inj.hosted[srcRouter]
	var src int
	switch len(nodes) {
	case 0:
		return 0, false // router hosts no memory at this scale
	case 1:
		src = nodes[0]
	default:
		src = nodes[rng.Intn(len(nodes))]
	}
	alive := *inj.alive
	if !alive[src] {
		return 0, false
	}
	dst, ok := inj.pat(src, rng)
	if !ok || dst < 0 || dst >= len(inj.router) || !alive[dst] {
		return 0, false // no destination, or not an alive memory node
	}
	dstRouter := inj.router[dst]
	if dstRouter == srcRouter {
		return 0, false // intra-router traffic never enters the network
	}
	return dstRouter, true
}

// syntheticResult assembles the unified Result of one open-loop measured
// window.
func (n *Network) syntheticResult(res netsim.Results, rate float64) Result {
	var em energy.Model
	em.AddFlitHopsRadix(res.FlitHops, n.d.Ports)
	return Result{
		Rate:            rate,
		Cycles:          res.Cycles,
		Injected:        res.Injected,
		Delivered:       res.Delivered,
		AvgLatencyNs:    res.AvgLatencyNs(),
		P90LatencyNs:    float64(res.LatencyHist.Percentile(0.90)) * netsim.CycleNs,
		AvgHops:         res.AvgHops(),
		ThroughputFPC:   res.ThroughputFlitsPerNodeCycle(),
		Escaped:         res.Escaped,
		Dropped:         res.Dropped,
		Deadlocked:      res.Deadlocked,
		NetworkEnergyPJ: em.NetworkPJ(),
		TotalEnergyPJ:   em.TotalPJ(),
		EDP:             em.EDP(float64(res.Cycles) * netsim.CycleNs),
	}
}

// runTrace drives one closed-loop trace-driven co-simulation (the Figure 12
// pipeline): synthesize per-socket Table IV traces through the paper's
// cache hierarchy, replay them against DRAM-timed memory nodes over the
// active network, and report IPC, read latency and the energy split.
// Memory pages live on alive nodes (gating migrates them), and requests
// travel at router granularity so the concentrated designs work unchanged.
//
// Under a gate schedule pages and CPU sockets live on the nodes that stay
// powered through every phase (gating never strands a socket or a page),
// the network simulates over the union link set, and gate events apply
// between co-simulation slices at their scheduled cycles — crossing
// traffic reroutes around the gated region while the replay keeps
// running. Rate modulation and regeneration have no closed-loop meaning
// (offered load emerges from the replay); resolveSchedule rejects them.
func (n *Network) runTrace(ctx context.Context, cfg SessionConfig, workload string) (Result, error) {
	ep := n.cur.Load()
	alive := ep.alive
	sch, err := resolveSchedule(cfg, scenarioEnv(n.d.N, alive, cfg.Seed), true)
	if err != nil {
		return Result{}, err
	}
	rec := &scenarioRecorder{}
	rig, err := n.newGateRig(ep, sch, rec)
	if err != nil {
		return Result{}, err
	}
	if rig != nil {
		alive = rig.everAlive
	}
	parts, err := n.buildTraceParts(ctx, cfg, workload, alive)
	if err != nil {
		return Result{}, err
	}
	netCfg := ep.simConfig(cfg, rig)
	// The snapshot hook reaches through to the co-simulation for the
	// memory-side occupancy; sys is assigned before any cycle runs, and
	// callbacks fire on the simulating goroutine.
	var sys *memsys.System
	wireTelemetry(&netCfg, rec.wrap(cfg, 0), 0, func() int {
		if sys == nil {
			return 0
		}
		return sys.OutstandingReads()
	})
	sys, err = memsys.Build(netCfg, parts.pool, parts.cpuNodes, cfg.Window, parts.traces)
	if err != nil {
		return Result{}, err
	}
	// traceResult copies everything out of the co-simulation's network, so
	// its arenas go back for the next session's New however the run ends.
	defer sys.Sim().Release()
	sys.Ports = n.d.Ports
	st := stepper{sim: sys.Sim(), slice: traceSliceCycles, done: sys.Done, run: func(k int64) error {
		sys.Run(k)
		if sys.NetResults().Deadlocked {
			return errors.New("memsys: network deadlocked")
		}
		return nil
	}}
	if err := drive(ctx, st, cfg.MaxCycles, rig.attach(st.sim)); err != nil {
		return Result{}, err
	}
	if !sys.Done() {
		return Result{}, fmt.Errorf("stringfigure: %s trace run did not finish in %d cycles",
			workload, st.sim.Cycle())
	}
	return traceResult(sys), nil
}

// traceParts is the precomputed input of one closed-loop co-simulation:
// the DRAM pool, the socket attachment points and the per-socket traces.
type traceParts struct {
	pool     *memnode.Pool
	cpuNodes []int
	traces   [][]trace.Op
}

// buildTraceParts synthesizes the memory layout and per-socket traces of
// a closed-loop run over the given node mask (a gated run passes the AND
// of every phase's mask so pages and sockets never land on a node the
// schedule gates off).
func (n *Network) buildTraceParts(ctx context.Context, cfg SessionConfig, workload string, alive []bool) (*traceParts, error) {
	// Memory pages are interleaved over the alive nodes only — gating a
	// node migrates its pages rather than dropping its traffic.
	aliveNodes := indices(alive)
	if len(aliveNodes) < 2 {
		return nil, fmt.Errorf("%w: trace run needs >= 2 alive nodes, have %d",
			ErrNodeDead, len(aliveNodes))
	}
	// CPU sockets attach to alive routers (the paper attaches processors to
	// edge nodes; any subset is legal — Section IV).
	aliveRouters := indices(n.routerMask(alive))
	sockets := min(cfg.Sockets, len(aliveRouters))
	cpuNodes := make([]int, sockets)
	for i := range cpuNodes {
		cpuNodes[i] = aliveRouters[(i*len(aliveRouters))/sockets]
	}
	pool, err := memnode.NewPool(n.d.Routers)
	if err != nil {
		return nil, err
	}
	amap := memnode.NewAddressMap(len(aliveNodes))
	traces := make([][]trace.Op, sockets)
	errs := make([]error, sockets)
	threads := int64(cfg.Threads)
	// A cold trace costs hundreds of thousands of cache-model accesses, so
	// min(sockets, GOMAXPROCS) workers take sockets in turn (trace.Shared
	// bounds the syntheses in flight process-wide) and each writes only its
	// own traces[i] and errs[i]. A worker honors cancellation before every
	// socket it takes and stops at its first error.
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= sockets {
				return
			}
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			// The trace depends on the workload, the alive-node count, Ops and
			// the seeds but not on the design, so it comes from the
			// process-wide store and is read-only here: sessions on other
			// designs, possibly running now, replay the same ops.
			tr, err := trace.Shared(workload, amap, cfg.Ops, cfg.Seed+int64(i), cfg.Seed+int64(100+i))
			if errors.Is(err, trace.ErrUnknownWorkload) {
				err = fmt.Errorf("%w: %v", ErrUnknownPattern, err)
			}
			if errs[i] = err; err != nil {
				return
			}
			// This design's view goes into a fresh slice: ops address alive
			// memory nodes and the network sees their routers; instruction
			// gaps compress by the per-socket thread count.
			ops := make([]trace.Op, len(tr.Ops))
			for k, op := range tr.Ops {
				op.Node = n.d.NodeRouter(aliveNodes[op.Node])
				op.Instr /= threads
				ops[k] = op
			}
			traces[i] = ops
		}
	}
	var wg sync.WaitGroup
	for range min(sockets, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	// The lowest failing socket's error, as a serial loop would return.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &traceParts{pool: pool, cpuNodes: cpuNodes, traces: traces}, nil
}

// traceResult assembles the unified Result of one completed closed-loop
// co-simulation.
func traceResult(sys *memsys.System) Result {
	mres := sys.Results()
	netRes := sys.NetResults()
	return Result{
		Cycles:           mres.Cycles,
		Injected:         netRes.Injected,
		Delivered:        netRes.Delivered,
		AvgLatencyNs:     netRes.AvgLatencyNs(),
		P90LatencyNs:     float64(netRes.LatencyHist.Percentile(0.90)) * netsim.CycleNs,
		AvgHops:          netRes.AvgHops(),
		ThroughputFPC:    netRes.ThroughputFlitsPerNodeCycle(),
		Escaped:          netRes.Escaped,
		Dropped:          netRes.Dropped,
		Deadlocked:       netRes.Deadlocked,
		IPC:              mres.IPC,
		AvgReadLatencyNs: mres.AvgReadLatencyNs,
		DRAMAccesses:     mres.DRAMAccesses,
		ReadsCompleted:   mres.ReadsComplete,
		TotalInstrs:      mres.TotalInstrs,
		NetworkEnergyPJ:  mres.NetworkPJ,
		DRAMEnergyPJ:     mres.DRAMPJ,
		TotalEnergyPJ:    mres.TotalPJ,
		EDP:              mres.EDP,
	}
}
