package stringfigure

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/scenario"
)

// Scenario kinds — the ScenarioSpec.Kind vocabulary. Each kind has a
// constructor (ChurnTrace, Churn, FailureStorm, DiurnalRate, BurstyRate,
// RegenerateS2) that fills the relevant fields.
const (
	// ScenarioChurnTrace replays an explicit gate-event list.
	ScenarioChurnTrace = scenario.KindChurnTrace
	// ScenarioChurn generates continuous bounded hotplug churn.
	ScenarioChurn = scenario.KindChurn
	// ScenarioStorm generates one correlated failure storm.
	ScenarioStorm = scenario.KindStorm
	// ScenarioDiurnal modulates the injection rate along a sine wave.
	ScenarioDiurnal = scenario.KindDiurnal
	// ScenarioBurst modulates the injection rate with seeded-random bursts.
	ScenarioBurst = scenario.KindBurst
	// ScenarioRegenS2 is the S2 regenerate-to-down-scale baseline.
	ScenarioRegenS2 = scenario.KindRegenS2
)

// ScenarioSpec is one declarative scenario attached to a session via
// SessionConfig.Scenario: a compact description (kind + parameters) that
// the session compiles into a deterministic per-cycle event schedule
// before the run starts. Compilation is pure — equal specs, seeds and
// networks always yield byte-identical schedules — and the compiled gate
// stream obeys the paper's Section VI epoch rules (same-cycle events form
// one reconfiguration epoch, epochs sit at least the 100 us minimum
// reconfiguration interval apart, gate-ons defer past the link wake
// latency; see GateEvent).
//
// Kind selects the generator; each kind reads its own field subset (see
// the constructors). Invalid specs surface as ErrScenario when the run
// starts. The struct serializes to snake_case JSON (the jobsvc JobSpec
// form) and rides the distributed sweep wire unchanged.
type ScenarioSpec = scenario.Spec

// ChurnTrace replays an explicit gate-event list — the way to schedule
// hand-written mid-run reconfiguration: each event gates a node off or
// back on at its absolute network cycle inside the running simulation.
// The events are normalized under the Section VI epoch rules (see
// GateEvent); transitions that are invalid when their turn comes — a node
// already in the requested state, a gate-off that would leave fewer than
// two alive nodes — are filtered rather than rejected, the trace-replay
// ergonomics for schedules captured from real churn logs.
func ChurnTrace(gates ...GateEvent) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioChurnTrace, Gates: gates}
}

// Churn generates continuous bounded hotplug churn: every `every` cycles
// a seeded-random alive node gates off until maxDown nodes are down, then
// the oldest-down node gates back on — the sustained elasticity workload.
func Churn(every int64, maxDown int) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioChurn, Every: every, MaxDown: maxDown}
}

// FailureStorm generates one correlated failure storm: every alive node
// within circular id-distance radius of center gates off at start, and
// back on recoverAfter cycles later (0 leaves the region down). A
// negative center draws a seeded-random one.
func FailureStorm(start int64, center, radius int, recoverAfter int64) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioStorm, Start: start, Center: center, Radius: radius, Recover: recoverAfter}
}

// DiurnalRate modulates the synthetic injection rate along a sine wave:
// the configured rate scales by 1 + depth*sin over each period,
// sampled as piecewise-constant steps. Works on every design (rate
// modulation needs no reconfiguration support).
func DiurnalRate(period int64, depth float64) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioDiurnal, Period: period, Depth: depth}
}

// BurstyRate modulates the synthetic injection rate with seeded-random
// bursts: roughly every `every` cycles the rate scales by factor for
// length cycles. Works on every design.
func BurstyRate(every, length int64, factor float64) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioBurst, Every: every, Length: length, Factor: factor}
}

// RegenerateS2 is the down-scaling baseline for the non-reconfigurable S2
// design: at cycle `at` the topology is regenerated with drop fewer nodes
// (S2 cannot gate nodes off — shrinking it means rebuilding), and
// injection stays silenced for outage cycles while the rebuild completes
// (0 defaults to the minimum reconfiguration interval). Contrast with a
// String Figure FailureStorm, which keeps serving traffic through the
// transition.
func RegenerateS2(at int64, drop int, outage int64) ScenarioSpec {
	return ScenarioSpec{Kind: ScenarioRegenS2, Start: at, Drop: drop, Outage: outage}
}

// ScenarioEvent is one scenario action a session applied, as stamped into
// TelemetrySnapshot.Scenario: Kind is "gate-off" or "gate-on" (Node set),
// "rate" (Rate set to the new effective injection rate), or "regen" (Node
// set to the regenerated topology's node count). Cycle is the absolute
// network cycle the action applied at.
type ScenarioEvent = scenario.Event

// scenarioRecorder stamps applied scenario events onto the telemetry
// stream: executors add events as they apply them (on the simulating
// goroutine, between Run slices), and the wrapped sink attaches every
// pending event at or before the snapshot's cycle. Purely observational —
// with no sink attached the recorder is inert.
type scenarioRecorder struct {
	events []ScenarioEvent
	next   int
}

func (r *scenarioRecorder) add(ev ScenarioEvent) { r.events = append(r.events, ev) }

// wrap attaches the recorder to the config's telemetry sink. offset is
// added to every snapshot's cycle before matching and delivery — the S2
// regeneration's phase B runs on a fresh simulator whose clock restarts
// at zero, and the offset restores absolute run cycles.
func (r *scenarioRecorder) wrap(cfg SessionConfig, offset int64) SessionConfig {
	if cfg.onTelemetry == nil || cfg.TelemetryEvery <= 0 {
		return cfg
	}
	inner := cfg.onTelemetry
	cfg.onTelemetry = func(t TelemetrySnapshot) {
		t.Cycle += offset
		for r.next < len(r.events) && r.events[r.next].Cycle <= t.Cycle {
			t.Scenario = append(t.Scenario, r.events[r.next])
			r.next++
		}
		inner(t)
	}
	return cfg
}

// scenarioEnv is what scenarios compile against: the node count, the
// paper's Section VI timing in cycles, the starting alive mask (nil = all
// alive) and the seed specs without their own derive from.
// resolveSchedule sets the run length.
func scenarioEnv(nodes int, alive []bool, seed int64) scenario.Env {
	t := reconfig.DefaultTiming()
	return scenario.Env{
		Nodes:       nodes,
		Alive:       alive,
		Wake:        int64(t.LinkWakeNs / netsim.CycleNs),
		MinInterval: int64(t.MinIntervalNs / netsim.CycleNs),
		Seed:        seed,
	}
}

// resolveSchedule compiles the (default-filled) config's scenario specs
// into the event schedule of one run: an open-loop run spans
// Warmup+Measure cycles, a closed-loop one MaxCycles. It owns the
// scenario x workload rule — rate modulation and regeneration have no
// closed-loop meaning, since offered load emerges from the replay — and
// is called both by a run, against its live network, and by the job
// service's submission check, against a bare all-alive environment, so
// the two reject the same specs with the same sentinel. All failures wrap
// ErrScenario; no scenario is the empty schedule.
func resolveSchedule(cfg SessionConfig, env scenario.Env, closedLoop bool) (scenario.Schedule, error) {
	if len(cfg.Scenario) == 0 {
		return scenario.Schedule{}, nil
	}
	env.Total = cfg.Warmup + cfg.Measure
	if closedLoop {
		env.Total = cfg.MaxCycles
	}
	sch, err := scenario.Compile(cfg.Scenario, env)
	if err != nil {
		return scenario.Schedule{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if closedLoop && (len(sch.Rates) > 0 || sch.Regen != nil) {
		return scenario.Schedule{}, fmt.Errorf("%w: rate modulation and regeneration need an open-loop synthetic workload (trace replay is closed-loop)", ErrScenario)
	}
	return sch, nil
}
