package stringfigure

import (
	"errors"
	"testing"

	"repro/internal/golden"
)

// The cross-core determinism suite: every scenario below runs twice — on the
// event-driven netsim core and on the reference full-scan core
// (SessionConfig.referenceCore) — and the two runs are compared through
// their JSON encodings, exactly the representation the job service journals
// (invariant 6); golden.Diff names the leaves that diverge. The contract is
// bit-identity: the event scheduler, packet pooling, batched routing
// evaluation and the incremental occupancy counter may change nothing
// observable, for any design, workload or gate schedule.

// coreDiff runs fn under both cores and compares the JSON of whatever it
// returns (results, snapshot streams, saturation rates...).
func coreDiff(t *testing.T, label string, fn func(cfg SessionConfig) any, cfg SessionConfig) {
	t.Helper()
	run := func(ref bool) any {
		c := cfg
		c.referenceCore = ref
		return fn(c)
	}
	ev := run(false)
	if d := golden.Diff(run(true), ev); d != "" {
		t.Errorf("%s: cores diverge (recorded: reference, got: event):%s", label, d)
	}
}

// sessionOutput bundles a run's Result with its telemetry stream so both are
// covered by one byte-diff.
type sessionOutput struct {
	Result Result
	Snaps  []TelemetrySnapshot
}

// mustNew is New for tests: a build error fails the test.
func mustNew(t testing.TB, opts ...Option) *Network {
	t.Helper()
	net, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustNet(t *testing.T, design string, nodes int) *Network {
	t.Helper()
	return mustNew(t, WithDesign(design), WithNodes(nodes), WithSeed(11))
}

// TestCrossCoreSessionAllDesigns byte-diffs a synthetic telemetry-enabled
// Session run between the two cores for all six designs at N=16 and a
// subset at N=64. Flow accounting and trace sampling are on, so the
// byte-diff also pins per-flow/link/router deltas and sampled trace
// records identical event-vs-reference.
func TestCrossCoreSessionAllDesigns(t *testing.T) {
	type scale struct {
		nodes   int
		designs []string
	}
	scales := []scale{
		{16, Designs()},
		{64, []string{"dm", "sf"}},
	}
	for _, sc := range scales {
		for _, d := range sc.designs {
			t.Run(d, func(t *testing.T) {
				net := mustNet(t, d, sc.nodes)
				base := SessionConfig{Rate: 0.08, Warmup: 400, Measure: 1600, Seed: 9,
					FlowBuckets: 4, TraceSampleEvery: 8}
				coreDiff(t, d, func(cfg SessionConfig) any {
					var snaps []TelemetrySnapshot
					cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
						snaps = append(snaps, s)
					})
					res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
					if err != nil {
						t.Fatal(err)
					}
					return sessionOutput{Result: res, Snaps: snaps}
				}, base)
			})
		}
	}
}

// TestFlowTelemetryOnOffIdentity pins the other half of the observability
// contract: enabling flow accounting and trace sampling must leave the
// simulation itself untouched. For every design and both cores, a run with
// FlowBuckets/TraceSampleEvery set produces a Result byte-identical to a
// run without them — the accounting reads state the simulation already
// computed, samples packets by id (no RNG), and never feeds back.
func TestFlowTelemetryOnOffIdentity(t *testing.T) {
	for _, d := range Designs() {
		t.Run(d, func(t *testing.T) {
			net := mustNet(t, d, 16)
			for _, ref := range []bool{false, true} {
				run := func(flow bool) (Result, int) {
					cfg := SessionConfig{Rate: 0.08, Warmup: 400, Measure: 1600,
						Seed: 9, referenceCore: ref}
					if flow {
						cfg.FlowBuckets = 4
						cfg.TraceSampleEvery = 8
					}
					records := 0
					cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
						records += len(s.Flows) + len(s.Trace)
					})
					res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
					if err != nil {
						t.Fatal(err)
					}
					return res, records
				}
				on, records := run(true)
				off, _ := run(false)
				if diff := golden.Diff(off, on); diff != "" {
					t.Errorf("%s ref=%v: flow telemetry perturbs the result (recorded: off, got: on):%s", d, ref, diff)
				}
				if records == 0 {
					t.Errorf("%s ref=%v: no flow/trace records with accounting enabled", d, ref)
				}
			}
		})
	}
}

// TestCrossCoreTraceAllDesigns byte-diffs a trace-driven (closed-loop memory
// co-simulation) run between the two cores for all six designs.
func TestCrossCoreTraceAllDesigns(t *testing.T) {
	workload := TraceWorkloads()[0]
	for _, d := range Designs() {
		t.Run(d, func(t *testing.T) {
			net := mustNet(t, d, 16)
			base := SessionConfig{Seed: 5, Ops: 400, Sockets: 2, MaxCycles: 3_000_000}
			coreDiff(t, d, func(cfg SessionConfig) any {
				var snaps []TelemetrySnapshot
				cfg = cfg.WithTelemetry(2048, func(s TelemetrySnapshot) {
					snaps = append(snaps, s)
				})
				res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: workload})
				if err != nil {
					t.Fatal(err)
				}
				return sessionOutput{Result: res, Snaps: snaps}
			}, base)
		})
	}
}

// TestCrossCoreSweepAndSaturation byte-diffs multi-point sweeps (2 workers)
// for every design and a saturation search for two designs.
func TestCrossCoreSweepAndSaturation(t *testing.T) {
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.05, 0.15, 0.3})
	for _, d := range Designs() {
		t.Run("sweep/"+d, func(t *testing.T) {
			net := mustNet(t, d, 16)
			base := SessionConfig{Warmup: 300, Measure: 1200, Seed: 21}
			coreDiff(t, d, func(cfg SessionConfig) any {
				return net.SweepAll(cfg, points, 2)
			}, base)
		})
	}
	for _, d := range []string{"sf", "fb"} {
		t.Run("saturation/"+d, func(t *testing.T) {
			net := mustNet(t, d, 16)
			base := SessionConfig{Warmup: 200, Measure: 800, Seed: 3}
			coreDiff(t, d, func(cfg SessionConfig) any {
				rate, err := net.Saturation(SyntheticWorkload{Pattern: "uniform"}, cfg, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				return rate
			}, base)
		})
	}
}

// TestCrossCoreScenarioMatrix is the determinism-torture matrix: every
// scenario family against every design, byte-diffed between the two cores
// where the combination is legal and pinned to its sentinel error where it
// is not. Gate scenarios (churn, storm) run only on the reconfigurable
// String Figure design — the baselines reject with ErrNotReconfigurable —
// the S2 regeneration baseline runs only on s2 (ErrScenario elsewhere),
// and rate modulation runs everywhere. Legal runs must also actually
// apply events: a schedule that compiles to nothing fails the test.
func TestCrossCoreScenarioMatrix(t *testing.T) {
	gateOnly := func(d string) error {
		if d == "sf" {
			return nil
		}
		return ErrNotReconfigurable
	}
	s2Only := func(d string) error {
		if d == "s2" {
			return nil
		}
		return ErrScenario
	}
	anyDesign := func(string) error { return nil }
	cases := []struct {
		name            string
		spec            ScenarioSpec
		warmup, measure int64
		wantErr         func(design string) error
	}{
		{"churn", Churn(31250, 2), 500, 70_000, gateOnly},
		{"storm", FailureStorm(3000, 4, 2, 31250), 500, 40_000, gateOnly},
		{"diurnal", DiurnalRate(800, 0.5), 400, 1600, anyDesign},
		{"regen", RegenerateS2(1000, 4, 500), 400, 1600, s2Only},
	}
	for _, tc := range cases {
		for _, d := range Designs() {
			t.Run(tc.name+"/"+d, func(t *testing.T) {
				net := mustNet(t, d, 16)
				base := SessionConfig{Rate: 0.05, Warmup: tc.warmup, Measure: tc.measure,
					Seed: 7, Scenario: []ScenarioSpec{tc.spec}}
				if want := tc.wantErr(d); want != nil {
					_, err := net.NewSession(base).Run(SyntheticWorkload{Pattern: "uniform"})
					if !errors.Is(err, want) {
						t.Fatalf("%s on %s: err = %v, want %v", tc.name, d, err, want)
					}
					return
				}
				applied := 0
				coreDiff(t, tc.name+"/"+d, func(cfg SessionConfig) any {
					var snaps []TelemetrySnapshot
					cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
						snaps = append(snaps, s)
						applied += len(s.Scenario)
					})
					res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
					if err != nil {
						t.Fatal(err)
					}
					return sessionOutput{Result: res, Snaps: snaps}
				}, base)
				if applied == 0 {
					t.Errorf("%s on %s: schedule applied no events", tc.name, d)
				}
			})
		}
	}
}

// TestScenarioTelemetryOnOffIdentity pins the scenario half of the
// observability contract: the recorder that stamps applied scenario events
// onto telemetry snapshots reads state the executors already produced and
// never feeds back, so a scenario run with telemetry attached produces a
// Result byte-identical to the same run without it — on both cores, for a
// gate scenario (storm on sf) and a rate scenario on a baseline design.
func TestScenarioTelemetryOnOffIdentity(t *testing.T) {
	cases := []struct {
		design          string
		spec            ScenarioSpec
		warmup, measure int64
	}{
		{"sf", FailureStorm(3000, 4, 2, 31250), 500, 40_000},
		{"dm", DiurnalRate(800, 0.5), 400, 1600},
	}
	for _, tc := range cases {
		t.Run(tc.design+"/"+tc.spec.Kind, func(t *testing.T) {
			net := mustNet(t, tc.design, 16)
			for _, ref := range []bool{false, true} {
				run := func(telemetry bool) (Result, int) {
					cfg := SessionConfig{Rate: 0.05, Warmup: tc.warmup, Measure: tc.measure,
						Seed: 7, referenceCore: ref, Scenario: []ScenarioSpec{tc.spec}}
					applied := 0
					if telemetry {
						cfg = cfg.WithTelemetry(500, func(s TelemetrySnapshot) {
							applied += len(s.Scenario)
						})
					}
					res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
					if err != nil {
						t.Fatal(err)
					}
					return res, applied
				}
				on, applied := run(true)
				off, _ := run(false)
				if d := golden.Diff(off, on); d != "" {
					t.Errorf("%s ref=%v: scenario telemetry perturbs the result (recorded: off, got: on):%s", tc.design, ref, d)
				}
				if applied == 0 {
					t.Errorf("%s ref=%v: no scenario events on the telemetry stream", tc.design, ref)
				}
			}
		})
	}
}

// TestCrossCoreTraceScenario byte-diffs a closed-loop trace run under a
// gate scenario between the two cores: pages and sockets place on the
// nodes that stay powered, the gated quadrant's crossing traffic reroutes
// mid-replay, and the whole transient must be bit-identical
// event-vs-reference. Rate scenarios have no closed-loop meaning, so the
// same config with a diurnal spec must reject with ErrScenario.
func TestCrossCoreTraceScenario(t *testing.T) {
	workload := TraceWorkloads()[0]
	net := mustNet(t, "sf", 16)
	base := SessionConfig{Seed: 5, Ops: 400, Sockets: 2, MaxCycles: 3_000_000,
		Scenario: []ScenarioSpec{ChurnTrace(
			GateEvent{Cycle: 500, Node: 8, On: false},
			GateEvent{Cycle: 500, Node: 9, On: false})}}
	applied := 0
	coreDiff(t, "trace-churn", func(cfg SessionConfig) any {
		var snaps []TelemetrySnapshot
		cfg = cfg.WithTelemetry(512, func(s TelemetrySnapshot) {
			snaps = append(snaps, s)
			applied += len(s.Scenario)
		})
		res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: workload})
		if err != nil {
			t.Fatal(err)
		}
		return sessionOutput{Result: res, Snaps: snaps}
	}, base)
	if applied == 0 {
		t.Error("trace-churn: schedule applied no events")
	}

	bad := base
	bad.Scenario = []ScenarioSpec{DiurnalRate(800, 0.5)}
	if _, err := net.NewSession(bad).Run(TraceWorkload{Workload: workload}); !errors.Is(err, ErrScenario) {
		t.Errorf("diurnal on trace replay: err = %v, want ErrScenario", err)
	}
}

// TestCrossCoreGatedTelemetry byte-diffs a full gate-schedule run — gate a
// node quadrant off and back on under live telemetry — between the two
// cores. This covers the reconfiguration machinery end to end: escape-route
// swaps, link wake-latency charging, routing-table mutation between Run
// slices, and the 100 us epoch deferral.
func TestCrossCoreGatedTelemetry(t *testing.T) {
	quadrant := []int{8, 9, 10, 11}
	var gates []GateEvent
	for _, v := range quadrant {
		gates = append(gates, GateEvent{Cycle: 3000, Node: v, On: false})
	}
	for _, v := range quadrant {
		gates = append(gates, GateEvent{Cycle: 3000 + 31250, Node: v, On: true})
	}
	for _, d := range []string{"sf"} { // the only reconfigurable design
		t.Run(d, func(t *testing.T) {
			net := mustNet(t, d, 32)
			base := SessionConfig{Rate: 0.08, Warmup: 500, Measure: 40_000, Seed: 7,
				TelemetryEvery: 1000, Scenario: []ScenarioSpec{ChurnTrace(gates...)},
				FlowBuckets: 4, TraceSampleEvery: 4}
			coreDiff(t, d, func(cfg SessionConfig) any {
				var snaps []TelemetrySnapshot
				cfg = cfg.WithTelemetry(0, func(s TelemetrySnapshot) {
					snaps = append(snaps, s)
				})
				res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
				if err != nil {
					t.Fatal(err)
				}
				return sessionOutput{Result: res, Snaps: snaps}
			}, base)
		})
	}
}
