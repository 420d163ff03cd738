package stringfigure

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// This file is the session layer's executor. Every run — open-loop
// synthetic (runOpenLoop) or closed-loop trace replay (runTrace), with or
// without a scenario — is a stepper advanced by the one loop, drive,
// through a cycle-sorted timeline of actions (statistics reset, gate
// apply, rate change); a plain run is the empty timeline, not a separate
// path. A run loads its network's epoch once and runs on it to its end,
// from compiling its schedule against the epoch's alive mask on. A
// schedule that gates nodes runs on a gateRig, which reconfigures a
// private copy of the epoch's engine, so every run shares its epoch with
// every other. The S2 regeneration baseline (runRegen) is two open-loop
// stretches on two networks, each phase on its own network's epoch.

// stepper is what drive advances: an open-loop *netsim.Sim or a
// closed-loop *memsys.System behind its run step.
type stepper struct {
	// sim is the network clock (the co-simulation's own network for a
	// closed-loop run).
	sim *netsim.Sim
	// run advances the simulation k cycles; a closed-loop step fails on a
	// deadlocked network.
	run func(k int64) error
	// slice bounds one run call, and with it the latency of cancellation
	// and of the done poll.
	slice int64
	// done, when set, ends the run early (closed-loop completion).
	done func() bool
}

// Slice bounds: open-loop runs check for cancellation every simChunk
// cycles; closed-loop runs poll completion every traceSliceCycles, the
// memsys completion-poll granularity (Result.Cycles depends on it).
const (
	simChunk         = 2048
	traceSliceCycles = 32
)

// action is one timeline entry: do fires between slices, once the clock
// reaches cycle.
type action struct {
	cycle int64
	do    func() error
}

// drive advances the stepper to cycle end (or until it reports done),
// firing each action of the cycle-sorted timeline at its cycle. A slice
// never crosses the next action or end, so the done poll restarts its
// slice grid at every action; actions at or past end never fire.
func drive(ctx context.Context, st stepper, end int64, acts []action) error {
	for {
		now := st.sim.Cycle()
		for len(acts) > 0 && acts[0].cycle <= now && acts[0].cycle < end {
			if err := acts[0].do(); err != nil {
				return err
			}
			acts = acts[1:]
		}
		if now >= end || (st.done != nil && st.done()) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		target := end
		if len(acts) > 0 && acts[0].cycle < end {
			target = acts[0].cycle
		}
		if err := st.run(min(target-now, st.slice)); err != nil {
			return err
		}
	}
}

// gateRig is the execution machinery of a gate-scheduled run: a private
// copy of the network's reconfiguration engine that the schedule's events
// apply to, the union adjacency of every phase (the simulator's physical
// link set), and the link wake-latency charge a gate-off incurs. The copy
// owns its alive mask and its router's table slice, so a gated run never
// touches the network its session runs on, and the run ends however it
// ends without anything to undo.
type gateRig struct {
	net    *reconfig.Network
	events []scenario.GateEvent
	// out is the union adjacency over every phase: all wires any phase
	// activates exist from cycle 0 (they are pre-provisioned shortcuts or
	// switched links); which ones carry traffic at any moment is governed
	// by the copy's routing tables.
	out [][]int
	// aliveNow tracks the live mask as events apply, from the epoch's on
	// entry, consulted dynamically by injection; everAlive marks the nodes
	// that stay powered through the whole schedule (where closed-loop runs
	// place memory pages and CPU sockets).
	aliveNow  []bool
	everAlive []bool
	// wakeCycles is the link wake-up time a gate-off charges, as a wake
	// deadline on the simulator, to every link it switches on (ring
	// healing).
	wakeCycles int64
	sim        *netsim.Sim
	rec        *scenarioRecorder
}

// newGateRig copies epoch ep's reconfiguration engine for one run of the
// compiled schedule's gate events and merges the union adjacency of every
// phase; no gate events is a gate-free run and a nil rig. The schedule was
// compiled against ep's alive mask, so every event is already legal
// (scenario.Compile guarantees it).
func (n *Network) newGateRig(ep *epoch, sch scenario.Schedule, rec *scenarioRecorder) (*gateRig, error) {
	if len(sch.Gates) == 0 {
		return nil, nil
	}
	if ep.net == nil {
		return nil, fmt.Errorf("%w: gate schedule on %s", ErrNotReconfigurable, n.d.Spec.Kind)
	}
	net := ep.net.Copy()
	cur, ever := slices.Clone(ep.alive), slices.Clone(ep.alive)
	out := make([][]int, n.d.Routers)
	addPhase := func() {
		for u, nbrs := range net.AdjacencyFor(cur) {
			var union []int
			reconfig.MergeSorted(out[u], nbrs, func(v int, _, _ bool) { union = append(union, v) })
			out[u] = union
		}
	}
	addPhase()
	for _, ev := range sch.Gates {
		cur[ev.Node] = ev.On
		if !ev.On {
			ever[ev.Node] = false
		}
		addPhase()
	}
	return &gateRig{
		net:        net,
		events:     sch.Gates,
		out:        out,
		aliveNow:   ep.alive,
		everAlive:  ever,
		wakeCycles: sch.Wake,
		rec:        rec,
	}, nil
}

// escapeFor builds the escape function for an alive mask. It declines
// packets whose destination is gated off (returning a non-link): they are
// permanently undeliverable, and the simulator drops them as unroutable —
// letting them commit to the escape ring instead would have them
// circulate forever, eventually clogging the escape channels and wedging
// the whole network.
func (r *gateRig) escapeFor(alive []bool) func(cur, dst int) (int, int) {
	ring := netsim.RingEscape(r.net.SF, alive)
	return func(cur, dst int) (int, int) {
		if !alive[dst] {
			return -1, 0
		}
		return ring(cur, dst)
	}
}

// attach binds the rig to its simulator and returns the schedule as
// timeline actions. A nil rig (gate-free run) attaches nothing and has no
// actions.
func (r *gateRig) attach(sim *netsim.Sim) []action {
	if r == nil {
		return nil
	}
	r.sim = sim
	acts := make([]action, len(r.events))
	for i, ev := range r.events {
		acts[i] = action{ev.Cycle, func() error { return r.apply(ev) }}
	}
	return acts
}

// apply executes one event against the rig's engine and simulator: gate
// the node, swap the escape routes to the new mask, and set a wake
// deadline on the links a gate-off switches on (ring healing) — a gate-on
// was already deferred past its links' wake by normalization. Flits
// routed onto a still waking link arrive only after its deadline, the
// mechanism behind the post-gate-off latency transient the telemetry
// stream watches.
func (r *gateRig) apply(ev scenario.GateEvent) error {
	woken, err := r.net.Gate(ev.Node, ev.On)
	if err != nil {
		return err
	}
	r.aliveNow = r.net.AliveSlice()
	r.sim.SetEscapeRoute(r.escapeFor(r.aliveNow))
	kind := scenario.EventGateOn
	if !ev.On {
		kind = scenario.EventGateOff
		until := r.sim.Cycle() + r.wakeCycles
		for _, l := range woken {
			if err := r.sim.SetLinkWake(l.From, l.To, until); err != nil {
				return err
			}
		}
	}
	r.rec.add(scenario.Event{Cycle: ev.Cycle, Kind: kind, Node: ev.Node})
	return nil
}

// runRegen executes the ScenarioRegenS2 baseline as two open-loop
// stretches: phase A runs the full-scale S2 topology to the regeneration
// cycle; the topology is then regenerated at Drop fewer nodes (a seeded
// build from the process's network store — S2 cannot gate nodes, so
// down-scaling means rebuilding), and phase B runs the remainder on the
// new network, its clock offset by the regeneration cycle and injection
// silenced through the rebuild outage. The measured window stitches both
// phases together, so the regeneration's outage and warm-cache loss land
// in the same metrics a String Figure storm is measured by. Phase A runs
// on epoch ep of n, phase B on n2's current epoch.
func (n *Network) runRegen(ctx context.Context, ep *epoch, cfg SessionConfig, patName string,
	pat traffic.Pattern, rg *scenario.Regen) (Result, error) {
	if n.d.Spec.Kind != "s2" {
		return Result{}, fmt.Errorf("%w: regen-s2 on design %q (the regeneration baseline rebuilds an s2 topology; reconfigurable designs gate nodes in place instead)",
			ErrScenario, n.d.Spec.Kind)
	}
	if patName == "" {
		return Result{}, fmt.Errorf("%w: regen-s2 needs a named synthetic pattern (traffic re-derives on the regenerated topology)", ErrScenario)
	}
	total := cfg.Warmup + cfg.Measure
	R := rg.Cycle
	rec := &scenarioRecorder{}
	resA, err := n.runOpenLoop(ctx, ep, cfg, pat, rec, scenario.Schedule{}, 0, R, cfg.Rate)
	if err != nil {
		return Result{}, err
	}

	// Regenerate: same design family and ports, Drop fewer nodes, a seed
	// derived deterministically from the original build.
	sp := n.d.Spec
	sp.N -= rg.Drop
	sp.Seed += 1 + int64(rg.Drop)
	n2, err := sharedNetwork(networkSpec{Spec: sp}, nil)
	if err != nil {
		return Result{}, fmt.Errorf("%w: regenerating s2 at %d nodes: %v", ErrScenario, sp.N, err)
	}
	patB, err := traffic.NewPattern(patName, n2.Nodes())
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownPattern, err)
	}
	rec.add(scenario.Event{Cycle: R, Kind: scenario.EventRegen, Node: n2.Nodes()})

	// Phase B starts silent and returns to the configured rate when the
	// outage ends (never, if the outage outlasts the run).
	back := scenario.Schedule{Rates: []scenario.RateEvent{{Cycle: rg.Outage, Scale: 1}}}
	resB, err := n2.runOpenLoop(ctx, n2.cur.Load(), cfg, patB, rec, back, R, total-R, 0)
	if err != nil {
		return Result{}, err
	}
	// Phase A is measured only when the regeneration lands after warm-up;
	// an earlier regeneration leaves the whole measured window to phase B.
	res := resB
	if R > cfg.Warmup {
		res = mergeNetResults(resA, resB)
	}
	return n.syntheticResult(res, cfg.Rate), nil
}

// mergeNetResults stitches two measured windows into one: counters and
// latency aggregates sum, histograms merge, occupancy comes from the
// later window, and the node count stays phase A's (the per-node
// throughput normalization keeps the original machine size as its
// denominator, charging the regeneration's capacity loss to throughput).
func mergeNetResults(a, b netsim.Results) netsim.Results {
	m := a
	m.Cycles += b.Cycles
	m.Injected += b.Injected
	m.Delivered += b.Delivered
	m.Dropped += b.Dropped
	m.Escaped += b.Escaped
	m.FlitsDelivered += b.FlitsDelivered
	m.FlitHops += b.FlitHops
	m.InFlight = b.InFlight
	m.LatencySum += b.LatencySum
	m.LatencyHist.Merge(&b.LatencyHist)
	m.HopHist.Merge(&b.HopHist)
	if m.MinInjectLatency < 0 || (b.MinInjectLatency >= 0 && b.MinInjectLatency < m.MinInjectLatency) {
		m.MinInjectLatency = b.MinInjectLatency
	}
	m.Deadlocked = m.Deadlocked || b.Deadlocked
	return m
}
