package stringfigure_test

// Live-telemetry tests: a WithTelemetry sink receives interval snapshots
// without perturbing results (bit-identical final Results with and without
// a sink), chained sinks compose, sweeps stamp point indices onto
// concurrent streams, and a mid-run gate schedule produces the paper's
// reconfiguration transient — P90 latency rises after GateOff and recovers
// after GateOn — visible in the stream.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	. "repro"
)

func TestSessionTelemetryStreamsSnapshots(t *testing.T) {
	net := mustNew(t, WithNodes(32), WithSeed(4))
	cfg := SessionConfig{Rate: 0.1, Warmup: 1000, Measure: 4000, Seed: 2}
	var got []TelemetrySnapshot
	res, err := net.NewSession(cfg.WithTelemetry(0, func(s TelemetrySnapshot) {
		got = append(got, s)
	})).Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	// 5000 cycles at the default 1000-cycle interval: 5 snapshots, of which
	// the 4000-cycle measured window contributes at least 2.
	if len(got) != 5 {
		t.Fatalf("snapshots = %d, want 5", len(got))
	}
	measured := 0
	for i, s := range got {
		if s.Workload != "uniform" || s.Seed != 2 || s.Rate != 0.1 || s.Point != -1 {
			t.Errorf("snapshot %d identity wrong: %+v", i, s)
		}
		if s.Cycle != int64(i+1)*1000 || s.IntervalCycles != 1000 {
			t.Errorf("snapshot %d cadence wrong: cycle=%d interval=%d", i, s.Cycle, s.IntervalCycles)
		}
		if s.Cycle > cfg.Warmup {
			measured++
			if s.Delivered == 0 || s.AvgLatencyNs <= 0 || s.P90LatencyNs <= 0 || s.ThroughputFPC <= 0 {
				t.Errorf("measured snapshot %d idle: %+v", i, s)
			}
		}
	}
	if measured < 2 {
		t.Errorf("measured-window snapshots = %d, want >= 2", measured)
	}

	// The final Result is bit-identical to a plain run of the same session.
	plain, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("telemetry perturbed the run:\nwith:    %+v\nwithout: %+v", res, plain)
	}
}

func TestSessionTelemetryTraceWorkload(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(3))
	cfg := SessionConfig{Ops: 400, Sockets: 2, Window: 8, MaxCycles: 10_000_000,
		Seed: 1, TelemetryEvery: 500}
	var got []TelemetrySnapshot
	res, err := net.NewSession(cfg.WithTelemetry(0, func(s TelemetrySnapshot) {
		got = append(got, s)
	})).Run(TraceWorkload{Workload: "grep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("trace run emitted no snapshots")
	}
	sawReads := false
	for _, s := range got {
		if s.Workload != "grep" || s.Rate != 0 {
			t.Fatalf("trace snapshot identity wrong: %+v", s)
		}
		if s.OutstandingReads > 0 {
			sawReads = true
		}
	}
	if !sawReads {
		t.Error("no snapshot observed memory-side occupancy (OutstandingReads)")
	}
	plain, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "grep"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("telemetry perturbed the trace run:\nwith:    %+v\nwithout: %+v", res, plain)
	}
}

// TestWithTelemetrySinksCompose: a second WithTelemetry adds a sink rather
// than replacing the first. Both see the identical snapshot sequence, the
// earlier-attached sink first, and the cadence is the last non-zero every.
func TestWithTelemetrySinksCompose(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(2))
	var order []string
	var first, second []TelemetrySnapshot
	cfg := SessionConfig{Rate: 0.1, Warmup: 250, Measure: 1250, Seed: 5, FlowBuckets: 2}.
		WithTelemetry(250, func(s TelemetrySnapshot) {
			order = append(order, "first")
			first = append(first, s)
		}).
		WithTelemetry(0, func(s TelemetrySnapshot) {
			order = append(order, "second")
			second = append(second, s)
		})
	if _, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 6 {
		t.Fatalf("first sink saw %d snapshots, want 6 (1500 cycles / 250)", len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("sinks saw different streams:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("call order %v, want first then second per snapshot", order)
		}
	}
}

func TestSweepTelemetryStampsPointsAndStaysBitIdentical(t *testing.T) {
	net := mustNew(t, WithNodes(32), WithSeed(6))
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.05, 0.1, 0.15})
	points = append(points, Point{Workload: TraceWorkload{Workload: "grep"}})
	base := SessionConfig{Warmup: 400, Measure: 1200,
		Ops: 300, Sockets: 2, Window: 8, MaxCycles: 10_000_000, Seed: 1}

	var mu sync.Mutex
	seen := make(map[int]int) // point index -> snapshots
	cfg := base.WithTelemetry(400, func(s TelemetrySnapshot) {
		mu.Lock()
		seen[s.Point]++
		mu.Unlock()
	})
	with := net.SweepAll(cfg, points, 4)
	without := net.SweepAll(base, points, 4)
	if !reflect.DeepEqual(with, without) {
		t.Errorf("telemetry sink changed sweep results:\nwith:    %+v\nwithout: %+v", with, without)
	}
	for i := range points {
		if seen[i] == 0 {
			t.Errorf("point %d streamed no snapshots", i)
		}
	}
	if seen[-1] != 0 {
		t.Errorf("%d snapshots missed their point stamp", seen[-1])
	}
}

func TestGatingTransientTelemetry(t *testing.T) {
	// The reconfiguration story, time-resolved: gate a quadrant off
	// mid-run and the snapshot stream shows the latency transient — P90
	// spikes after GateOff while the healed shortcut links wake up (the
	// paper's 5 us link wake latency) and in-flight packets divert to the
	// escape subnetwork, settles, spikes again at GateOn, and recovers to
	// the full-network steady state.
	net := mustNew(t, WithNodes(32), WithSeed(7))
	// The two epochs sit a full minimum reconfiguration interval apart
	// (100 us = 31250 cycles at 3.2 ns/cycle), as the paper requires.
	quadrant := []int{8, 9, 10, 11, 12, 13, 14, 15}
	const gateOff, gateOn = 4000, 36000
	var gates []GateEvent
	for _, v := range quadrant {
		gates = append(gates, GateEvent{Cycle: gateOff, Node: v, On: false})
	}
	for _, v := range quadrant {
		gates = append(gates, GateEvent{Cycle: gateOn, Node: v, On: true})
	}
	var collected []TelemetrySnapshot
	cfg := SessionConfig{Rate: 0.1, Warmup: 1000, Measure: 47000, Seed: 3,
		Scenario: []ScenarioSpec{ChurnTrace(gates...)}}.WithTelemetry(500, func(s TelemetrySnapshot) {
		collected = append(collected, s)
	})
	res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	maxP90 := func(lo, hi int64) float64 {
		max := 0.0
		for _, s := range collected {
			if s.Cycle > lo && s.Cycle <= hi && s.P90LatencyNs > max {
				max = s.P90LatencyNs
			}
		}
		return max
	}
	before := maxP90(1000, 4000)      // steady state, full network
	spike := maxP90(4000, 6500)       // GateOff transient: wake-up + escapes
	recovered := maxP90(44000, 48000) // well after the GateOn transient
	t.Logf("P90 ns: before=%.1f gateoff-spike=%.1f recovered=%.1f", before, spike, recovered)
	if before <= 0 || spike <= 0 || recovered <= 0 {
		t.Fatalf("empty phase buckets: before=%v spike=%v recovered=%v", before, spike, recovered)
	}
	if spike <= before*3 {
		t.Errorf("P90 did not rise after GateOff: before=%.1f spike=%.1f", before, spike)
	}
	if recovered >= spike*0.2 {
		t.Errorf("P90 did not recover after GateOn: spike=%.1f recovered=%.1f", spike, recovered)
	}
	if recovered > before*2 {
		t.Errorf("recovered P90 %.1f not back near pre-gate baseline %.1f", recovered, before)
	}
	// Escape diversions are part of the transient; the run must survive it.
	if res.Escaped == 0 {
		t.Error("transient produced no escape diversions")
	}
	if res.Deadlocked {
		t.Error("scheduled run deadlocked")
	}
	// The schedule must not leak: the session gated its own engine copy.
	if net.AliveCount() != 32 {
		t.Errorf("alive count after scheduled run = %d, want 32", net.AliveCount())
	}
}

// TestGatedRunRestoresMaskOnCancel: a gate-scheduled run canceled after
// its gate-off applied leaves the network with its starting alive mask —
// the gate-off reconfigured the run's own engine copy — so the same node
// is still alive and a public GateOff of it succeeds.
func TestGatedRunRestoresMaskOnCancel(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(7))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := SessionConfig{Rate: 0.05, Warmup: 200, Measure: 400_000, Seed: 3,
		Scenario: []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 500, Node: 3})}}
	cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
		if len(s.Scenario) > 0 {
			cancel()
		}
	})
	if _, err := net.NewSession(cfg).RunContext(ctx, SyntheticWorkload{Pattern: "uniform"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if net.AliveCount() != 16 {
		t.Errorf("alive count after canceled gated run = %d, want 16", net.AliveCount())
	}
	if err := net.GateOff(3); err != nil { // node 3 is still alive
		t.Errorf("GateOff after canceled gated run: %v", err)
	}
}

// TestGateScheduleHonorsMinInterval pins the paper's minimum
// reconfiguration spacing (Section VI, 100 us = 31250 cycles): two gate
// epochs scheduled closer than that are not applied back to back — the
// second is deferred to exactly one minimum interval after the first, so
// the run is bit-identical to the same schedule written with explicit
// legal spacing.
func TestGateScheduleHonorsMinInterval(t *testing.T) {
	const minCycles = 31250 // 100_000 ns at 3.2 ns/cycle
	run := func(second int64) Result {
		t.Helper()
		net := mustNew(t, WithNodes(32), WithSeed(5))
		cfg := SessionConfig{Rate: 0.05, Warmup: 500, Measure: 36000, Seed: 2,
			Scenario: []ScenarioSpec{ChurnTrace(
				GateEvent{Cycle: 2000, Node: 3, On: false},
				GateEvent{Cycle: second, Node: 9, On: false},
			)}}
		res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	violating := run(2100)            // 100 cycles after the first epoch
	deferred := run(2000 + minCycles) // where the deferral must land it
	if !reflect.DeepEqual(violating, deferred) {
		t.Errorf("violating schedule was not deferred to the minimum interval:\nviolating: %+v\ndeferred:  %+v",
			violating, deferred)
	}
	// The deferral is real, not a no-op: actually gating at 2100 would
	// change the simulation. A run whose second epoch never fires (pushed
	// past the end of the run) must differ from the deferred one.
	unfired := run(40000 + minCycles)
	if reflect.DeepEqual(deferred, unfired) {
		t.Error("deferred schedule indistinguishable from one whose second epoch never fires")
	}
}
