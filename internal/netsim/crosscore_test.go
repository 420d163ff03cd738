package netsim

import (
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// coreRun is one core's output for a scenario: its results, its snapshot
// stream and the engine counters of the transitions both cores share.
type coreRun struct {
	res    Results
	snaps  []Snapshot
	shared EngineStats
}

// runCore runs the scenario on one core.
func runCore(t *testing.T, cfg Config, ref bool, drive func(s *Sim)) coreRun {
	t.Helper()
	var out coreRun
	cfg.ReferenceCore = ref
	cfg.SnapshotEvery = 64
	cfg.OnSnapshot = func(sn Snapshot) { out.snaps = append(out.snaps, sn) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s)
	st := s.Stats()
	out.res = s.Results()
	out.shared = EngineStats{PoolGrowths: st.PoolGrowths, PoolHighWater: st.PoolHighWater,
		SrcQGrowths: st.SrcQGrowths, LinkGrowths: st.LinkGrowths, EscapeTransitions: st.EscapeTransitions}
	return out
}

// checkCores fails the test unless both cores produced identical results,
// snapshot streams and shared-transition engine counts.
func checkCores(t *testing.T, cfg Config, drive func(s *Sim)) {
	t.Helper()
	ev, ref := runCore(t, cfg, false, drive), runCore(t, cfg, true, drive)
	if !reflect.DeepEqual(ev.res, ref.res) {
		t.Errorf("results diverge:\nevent: %+v\nref:   %+v", ev.res, ref.res)
	}
	if ev.shared != ref.shared {
		t.Errorf("shared engine counts diverge:\nevent: %+v\nref:   %+v", ev.shared, ref.shared)
	}
	if !reflect.DeepEqual(ev.snaps, ref.snaps) {
		t.Errorf("snapshot streams diverge: %d vs %d snapshots", len(ev.snaps), len(ref.snaps))
		for i := 0; i < len(ev.snaps) && i < len(ref.snaps); i++ {
			if !reflect.DeepEqual(ev.snaps[i], ref.snaps[i]) {
				t.Errorf("first divergent snapshot %d:\nevent: %+v\nref:   %+v", i, ev.snaps[i], ref.snaps[i])
				break
			}
		}
	}
}

// TestCrossCoreSyntheticSF pins bit-identity of the event-driven core
// against the reference full-scan core on a String Figure network across
// load levels, including loads past saturation.
func TestCrossCoreSyntheticSF(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 32, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.02, 0.1, 0.4} {
		cfg := SFConfig(sf, 7)
		checkCores(t, cfg, func(s *Sim) {
			s.SetPattern(rate, pat)
			s.Run(600)
			s.ResetStats()
			s.Run(1500)
			// Drain tail: stop injecting and let the network empty, which
			// exercises router deactivation and reactivation.
			s.SetPattern(0, pat)
			s.Run(800)
			s.SetPattern(rate, pat)
			s.Run(400)
		})
	}
}

// TestCrossCoreTraceAndClosedLoop pins bit-identity under scripted
// injection (Inject between Run slices) plus an OnDelivered closed loop (the memory co-simulation
// pattern: callbacks inject responses mid-phase).
func TestCrossCoreTraceAndClosedLoop(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 24, Ports: 4, Seed: 11, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	var script []injection
	for c := int64(0); c < 400; c += 3 {
		script = append(script, injection{c, int(c) % 24, int(c*7+5) % 24})
	}
	cfg := SFConfig(sf, 5)
	base := cfg
	checkCores(t, base, func(s *Sim) {
		// Closed loop: every delivery to an even node triggers a response.
		s.SetEscapeRoute(cfg.EscapeRoute)
		responded := 0
		s.cfg.OnDelivered = func(src, dst int, tag int64) {
			if dst%2 == 0 && responded < 200 {
				responded++
				s.Inject(dst, src, 2, tag+1)
			}
		}
		runScript(t, s, script, 2000)
	})
}

// TestCrossCoreFlowTelemetry pins the flow-observability layer at the
// netsim boundary: with flow accounting and trace sampling enabled, both
// cores must produce identical Results and identical snapshot streams —
// including the per-flow/link/router deltas and the sorted trace records —
// and enabling the accounting must leave the simulation itself (Results
// plus the pre-existing snapshot fields) bit-identical to a run without it,
// on either core.
func TestCrossCoreFlowTelemetry(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 32, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(s *Sim) {
		s.SetPattern(0.1, pat)
		s.Run(900)
		s.ResetStats()
		s.Run(1200)
	}
	flowCfg := func() Config {
		c := SFConfig(sf, 7)
		c.FlowBuckets = 4
		c.TraceSampleEvery = 8
		return c
	}

	// Event vs reference with the accounting on.
	checkCores(t, flowCfg(), drive)

	// On vs off, per core: the accounting is purely observational.
	run := func(c Config) (Results, []Snapshot) {
		var snaps []Snapshot
		c.SnapshotEvery = 64
		c.OnSnapshot = func(sn Snapshot) { snaps = append(snaps, sn) }
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		drive(s)
		return s.Results(), snaps
	}
	for _, ref := range []bool{false, true} {
		on := flowCfg()
		on.ReferenceCore = ref
		off := SFConfig(sf, 7)
		off.ReferenceCore = ref
		onRes, onSnaps := run(on)
		offRes, offSnaps := run(off)
		if !reflect.DeepEqual(onRes, offRes) {
			t.Errorf("ref=%v: flow accounting perturbs results:\non:  %+v\noff: %+v", ref, onRes, offRes)
		}
		var flows, traces int
		for i := range onSnaps {
			flows += len(onSnaps[i].Flows)
			traces += len(onSnaps[i].Trace)
			onSnaps[i].Flows, onSnaps[i].Links = nil, nil
			onSnaps[i].Routers, onSnaps[i].Trace = nil, nil
		}
		if flows == 0 || traces == 0 {
			t.Errorf("ref=%v: accounting enabled but emitted %d flow deltas, %d trace records", ref, flows, traces)
		}
		if !reflect.DeepEqual(onSnaps, offSnaps) {
			t.Errorf("ref=%v: flow accounting perturbs the base snapshot stream", ref)
		}
	}
}

// TestCrossCoreMidRunHooks pins bit-identity while the mid-run hooks used
// by gate schedules fire: routing-table mutation between Run slices, link
// latency swaps (wake charging), and escape-route swaps.
func TestCrossCoreMidRunHooks(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 24, Ports: 4, Seed: 9, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SFConfig(sf, 13)
	checkCores(t, cfg, func(s *Sim) {
		s.SetPattern(0.15, pat)
		s.Run(300)
		// Charge extra latency on every link out of node 0 with a fixed
		// deadline, as reconfiguration wake charging does.
		deadline := s.Cycle() + 40
		s.SetLinkLatency(func(u, v int) int {
			if u == 0 || v == 0 {
				if rem := deadline - s.Cycle(); rem > DefaultLinkLatency {
					return int(rem)
				}
			}
			return DefaultLinkLatency
		})
		s.Run(200)
		s.SetLinkLatency(nil)
		s.Run(500)
	})
}
