package stringfigure_test

import (
	"fmt"
	"testing"

	"repro/internal/golden"
	"repro/internal/netsim"
)

// The golden engine counts pin the simulator's own work the way the golden
// digests pin its answers: every netsim.EngineStats counter is a pure
// function of configuration and seed, so a change that moves one — more
// route-cache misses, a pool that grows more often, fewer empty cycles —
// shows as an exact diff of testdata/golden_engine_counts.json, where a
// wall-clock move on a shared host would be noise. Rewrite the table only
// on purpose:
//
//	go test . -run TestGoldenEngineCounts -update
const (
	// engineCountCycles is the run length of every grid point: long enough
	// for the loaded points to fill their pools, rings and columns, short
	// enough for CI's -race run.
	engineCountCycles = 1000
	// The N64_wake point: a gate-off's ring healing at wakeAt charges
	// every link out of wakeRouter the Section VI wake time (5 µs, 1 562
	// cycles at 3.2 ns), far past the wake wheel's span, so those flits
	// arrive through the overflow heap. The run goes on for
	// engineCountCycles past the deadline.
	wakeAt     = 200
	wakeRouter = 21
	wakeCycles = 1562
)

// wakeEngineCounts runs the N64_wake point: N=64 at rate 0.04, cold, with
// the wake charge applied at wakeAt the way a gate schedule applies it.
func wakeEngineCounts(t *testing.T) netsim.EngineStats {
	cfg := netsimStepConfig(t, 64, false)
	sim := netsimStepSim(t, cfg, 0.04)
	sim.Run(wakeAt)
	for _, v := range cfg.Out[wakeRouter] {
		if err := sim.SetLinkWake(wakeRouter, v, sim.Cycle()+wakeCycles); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(wakeCycles + engineCountCycles)
	if sim.Results().Deadlocked {
		t.Fatal("N64_wake deadlocked")
	}
	return sim.Stats()
}

// TestGoldenEngineCounts runs each BenchmarkNetsimStep grid point cold for
// engineCountCycles cycles on a private route cache and compares its
// EngineStats with the committed table.
func TestGoldenEngineCounts(t *testing.T) {
	got := map[string]netsim.EngineStats{}
	for _, g := range netsimStepGrid {
		sim := netsimStepSim(t, netsimStepConfig(t, g.n, g.session), g.rate)
		sim.Run(engineCountCycles)
		if sim.Results().Deadlocked {
			t.Fatalf("N%d_%s deadlocked", g.n, g.load)
		}
		got[fmt.Sprintf("N%d_%s", g.n, g.load)] = sim.Stats()
	}
	got["N64_wake"] = wakeEngineCounts(t)
	golden.JSON(t, "testdata/golden_engine_counts.json", got)
}
