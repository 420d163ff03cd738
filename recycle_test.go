package stringfigure

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/golden"
)

// TestRecycledSimulatorsIsolated pins that a simulator built from arenas
// another session released (netsim.Sim.Release) starts exactly as a fresh
// one. It re-runs every case of testdata/golden_sessions.json twice, in two
// shuffled orders, and puts three dirtying sessions before each: a
// saturated run (at N=64, and at N=16 on the case's design) and a run
// canceled in the middle of a slice, in alternating order, then a gated
// storm with flow telemetry (on sf). Sessions run one at a time, so the
// case's simulator takes the arenas the last dirtying session of its shape
// left, full of flits, claimed output VCs, spent credits and wake
// deadlines (the free list keeps the two most recent sets even at
// GOMAXPROCS 2). Every record must equal its golden one byte for byte.
func TestRecycledSimulatorsIsolated(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_sessions.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]goldenRecord
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	type netID struct {
		design string
		nodes  int
	}
	nets := make(map[netID]*Network)
	net := func(design string, nodes int) *Network {
		id := netID{design, nodes}
		if nets[id] == nil {
			nets[id] = mustNet(t, design, nodes)
		}
		return nets[id]
	}
	uniform := SyntheticWorkload{Pattern: "uniform"}
	saturated := func(design string) {
		cfg := SessionConfig{Rate: 0.6, Warmup: 100, Measure: 500, Seed: 3}
		for _, n := range []*Network{net("sf", 64), net(design, 16)} {
			if _, err := n.NewSession(cfg).Run(uniform); err != nil {
				t.Fatalf("saturated run on %s: %v", design, err)
			}
		}
	}
	canceled := func(design string) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := SessionConfig{Rate: 0.3, Warmup: 200, Measure: 20_000, Seed: 4}
		cfg = cfg.WithTelemetry(100, func(s TelemetrySnapshot) {
			if s.Cycle >= 700 {
				cancel() // inside Run: the slice ends at its own length
			}
		})
		_, err := net(design, 16).NewSession(cfg).RunContext(ctx, uniform)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run on %s: %v, want context.Canceled", design, err)
		}
	}
	// The storm has the schedule of the golden storm+diurnal/sf case over
	// the same run length, so its simulator has that case's shape (the
	// union adjacency of every phase), but it starts 500 cycles later: the
	// wake deadlines it leaves on the healed links would delay the case's
	// flits if New kept them.
	storm := func(string) {
		cfg := SessionConfig{Rate: 0.03, Warmup: 500, Measure: 40_000, Seed: 5, FlowBuckets: 4,
			Scenario: []ScenarioSpec{FailureStorm(3500, 4, 2, 31250)}}
		cfg = cfg.WithTelemetry(250, func(TelemetrySnapshot) {})
		if _, err := net("sf", 16).NewSession(cfg).Run(uniform); err != nil {
			t.Fatalf("storm run: %v", err)
		}
	}

	cases := goldenCases()
	order := append(rand.New(rand.NewSource(1)).Perm(len(cases)), rand.New(rand.NewSource(2)).Perm(len(cases))...)
	for k, i := range order {
		c := cases[i]
		if k%2 == 0 {
			saturated(c.design)
			canceled(c.design)
		} else {
			canceled(c.design)
			saturated(c.design)
		}
		storm(c.design)
		if d := golden.Diff(recorded[c.name], goldenRun(t, c)); d != "" {
			t.Errorf("%s (run %d) on recycled arenas:%s", c.name, k, d)
		}
	}
}
