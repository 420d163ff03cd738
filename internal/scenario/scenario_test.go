package scenario

import (
	"math/rand"
	"reflect"
	"testing"
)

// testEnv mirrors the session layer's timing at the default 3.2 ns cycle:
// 5 us wake = 1562 cycles, 100 us minimum interval = 31250 cycles.
func testEnv(nodes int, total int64, seed int64) Env {
	return Env{Nodes: nodes, Total: total, Wake: 1562, MinInterval: 31250, Seed: seed}
}

// randomSpecs draws a random scenario list: up to three gate-producing
// specs plus optionally one rate spec — the shapes Compile accepts.
func randomSpecs(rng *rand.Rand, env Env) []Spec {
	var specs []Spec
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			var evs []GateEvent
			for j := 0; j < rng.Intn(6); j++ {
				evs = append(evs, GateEvent{
					Cycle: rng.Int63n(env.Total),
					Node:  rng.Intn(env.Nodes),
					On:    rng.Intn(2) == 0,
				})
			}
			specs = append(specs, Spec{Kind: KindChurnTrace, Gates: evs})
		case 1:
			specs = append(specs, Spec{
				Kind:    KindChurn,
				Seed:    rng.Int63(),
				Start:   rng.Int63n(env.Total),
				Every:   1 + rng.Int63n(env.Total/2),
				MaxDown: 1 + rng.Intn(4),
			})
		default:
			specs = append(specs, Spec{
				Kind:    KindStorm,
				Seed:    rng.Int63(),
				Start:   rng.Int63n(env.Total),
				Center:  rng.Intn(env.Nodes+2) - 1, // includes -1 (seeded) and one out-of-range guardrail below
				Radius:  rng.Intn(env.Nodes / 2),
				Recover: rng.Int63n(2 * env.Total),
			})
		}
	}
	switch rng.Intn(3) {
	case 0:
		specs = append(specs, Spec{
			Kind:   KindDiurnal,
			Start:  rng.Int63n(env.Total),
			Period: 1 + rng.Int63n(env.Total),
			Depth:  rng.Float64() * 0.99,
		})
	case 1:
		specs = append(specs, Spec{
			Kind:   KindBurst,
			Seed:   rng.Int63(),
			Every:  1 + rng.Int63n(env.Total/2),
			Length: 1 + rng.Int63n(env.Total/4),
			Factor: 0.1 + 3*rng.Float64(),
		})
	}
	return specs
}

// checkSchedule asserts every structural invariant a compiled schedule
// promises: sorted in-bounds gate events honoring epoch spacing and mask
// validity, and sorted strictly-increasing positive-scale rate events.
func checkSchedule(t *testing.T, sch Schedule, env Env) {
	t.Helper()
	alive := make([]bool, env.Nodes)
	count := 0
	for i := range alive {
		if env.Alive == nil || env.Alive[i] {
			alive[i] = true
			count++
		}
	}
	var prevCycle, prevEpoch int64 = -1, -1
	for i, ev := range sch.Gates {
		if ev.Cycle < 0 || ev.Cycle >= env.Total {
			t.Fatalf("gate %d out of run bounds: %+v (total %d)", i, ev, env.Total)
		}
		if ev.Node < 0 || ev.Node >= env.Nodes {
			t.Fatalf("gate %d targets absent node: %+v (N=%d)", i, ev, env.Nodes)
		}
		if ev.Cycle < prevCycle {
			t.Fatalf("gate %d out of order: %+v after cycle %d", i, ev, prevCycle)
		}
		if ev.Cycle != prevEpoch {
			// New epoch: must sit at least MinInterval past the previous one.
			if prevEpoch >= 0 && ev.Cycle-prevEpoch < env.MinInterval {
				t.Fatalf("gate %d violates the minimum reconfiguration interval: epoch %d after %d (min %d)",
					i, ev.Cycle, prevEpoch, env.MinInterval)
			}
			prevEpoch = ev.Cycle
		}
		prevCycle = ev.Cycle
		if alive[ev.Node] == ev.On {
			t.Fatalf("gate %d is a no-op transition: %+v", i, ev)
		}
		if !ev.On && count <= 2 {
			t.Fatalf("gate %d would drop below two alive nodes: %+v", i, ev)
		}
		alive[ev.Node] = ev.On
		if ev.On {
			count++
		} else {
			count--
		}
	}
	prevCycle = -1
	for i, ev := range sch.Rates {
		if ev.Cycle < 0 || ev.Cycle >= env.Total {
			t.Fatalf("rate %d out of run bounds: %+v (total %d)", i, ev, env.Total)
		}
		if ev.Cycle <= prevCycle {
			t.Fatalf("rate %d not strictly increasing: %+v after cycle %d", i, ev, prevCycle)
		}
		if ev.Scale <= 0 {
			t.Fatalf("rate %d has non-positive scale: %+v", i, ev)
		}
		prevCycle = ev.Cycle
	}
}

// TestCompileProperties is the rapid-style property loop: hundreds of
// random spec lists must compile (or reject cleanly), satisfy every
// schedule invariant, and be byte-identical across two compiles.
func TestCompileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nodes := 4 + rng.Intn(61)
		total := int64(1000 + rng.Intn(400_000))
		env := testEnv(nodes, total, rng.Int63())
		specs := randomSpecs(rng, env)

		sch, err := Compile(specs, env)
		if err != nil {
			// A rejected list (e.g. an out-of-range explicit storm center)
			// must reject identically on a second compile.
			if _, err2 := Compile(specs, env); err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("trial %d: compile error not reproducible: %v vs %v", trial, err, err2)
			}
			continue
		}
		checkSchedule(t, sch, env)
		again, err := Compile(specs, env)
		if err != nil {
			t.Fatalf("trial %d: second compile failed: %v", trial, err)
		}
		if !reflect.DeepEqual(sch, again) {
			t.Fatalf("trial %d: compile is not pure:\nfirst:  %+v\nsecond: %+v", trial, sch, again)
		}
	}
}

// TestNormalizeMatchesGateRules pins the extracted Normalize against the
// session layer's documented behavior on hand-written cases.
func TestNormalizeMatchesGateRules(t *testing.T) {
	const wake, min, total = 1562, 31250, 100_000
	t.Run("wake shift and epoch fuse", func(t *testing.T) {
		got := Normalize([]GateEvent{
			{Cycle: 3000, Node: 1, On: false},
			{Cycle: 3000, Node: 2, On: false},
			{Cycle: 40_000, Node: 1, On: true},
		}, wake, min, total)
		want := []GateEvent{
			{Cycle: 3000, Node: 1, On: false},
			{Cycle: 3000, Node: 2, On: false},
			{Cycle: 40_000 + wake, Node: 1, On: true},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
	t.Run("too-close epoch defers preserving order", func(t *testing.T) {
		got := Normalize([]GateEvent{
			{Cycle: 1000, Node: 1, On: false},
			{Cycle: 2000, Node: 2, On: false},
		}, wake, min, total)
		want := []GateEvent{
			{Cycle: 1000, Node: 1, On: false},
			{Cycle: 1000 + min, Node: 2, On: false},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
	t.Run("events deferred past the run drop", func(t *testing.T) {
		got := Normalize([]GateEvent{
			{Cycle: 80_000, Node: 1, On: false},
			{Cycle: 81_000, Node: 2, On: false},
		}, wake, min, total)
		want := []GateEvent{{Cycle: 80_000, Node: 1, On: false}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
}

// TestCompileRejects pins the input validation errors.
func TestCompileRejects(t *testing.T) {
	env := testEnv(16, 50_000, 7)
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"unknown kind", []Spec{{Kind: "tsunami"}}},
		{"trace event out of range", []Spec{{Kind: KindChurnTrace, Gates: []GateEvent{{Cycle: 10, Node: 99}}}}},
		{"churn without tick", []Spec{{Kind: KindChurn}}},
		{"storm center out of range", []Spec{{Kind: KindStorm, Center: 16, Radius: 1}}},
		{"diurnal depth out of range", []Spec{{Kind: KindDiurnal, Period: 100, Depth: 1.5}}},
		{"burst without factor", []Spec{{Kind: KindBurst, Every: 100, Length: 10}}},
		{"two rate specs", []Spec{
			{Kind: KindDiurnal, Period: 100, Depth: 0.5},
			{Kind: KindBurst, Every: 100, Length: 10, Factor: 2},
		}},
		{"regen drops too much", []Spec{{Kind: KindRegenS2, Drop: 15}}},
		{"regen combined with gates", []Spec{
			{Kind: KindRegenS2, Start: 100, Drop: 4},
			{Kind: KindStorm, Start: 10, Center: 3, Radius: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.specs, env); err == nil {
				t.Fatalf("compile accepted %+v", tc.specs)
			}
		})
	}
}

// TestRegenDefaults pins the regeneration defaults: the outage defaults
// to the minimum reconfiguration interval.
func TestRegenDefaults(t *testing.T) {
	env := testEnv(16, 50_000, 7)
	sch, err := Compile([]Spec{{Kind: KindRegenS2, Start: 9000, Drop: 4}}, env)
	if err != nil {
		t.Fatal(err)
	}
	want := &Regen{Cycle: 9000, Drop: 4, Outage: env.MinInterval}
	if !reflect.DeepEqual(sch.Regen, want) {
		t.Fatalf("regen = %+v, want %+v", sch.Regen, want)
	}
}

// FuzzCompile drives Compile with fuzzer-chosen scalar inputs standing
// in for one spec of each family, asserting the same invariants as the
// property loop: whatever compiles is sorted, epoch-legal, in-bounds,
// mask-valid, and pure.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), 16, int64(50_000), int64(100), int64(2000), 2, 3, 1, int64(5000))
	f.Add(int64(99), 64, int64(400_000), int64(0), int64(31250), 4, -1, 7, int64(0))
	f.Add(int64(-5), 5, int64(1500), int64(1499), int64(1), 1, 0, 0, int64(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes int, total, start, every int64,
		maxDown, center, radius int, rec int64) {
		if nodes < 2 || nodes > 256 || total <= 0 || total > 1_000_000 {
			t.Skip()
		}
		env := testEnv(nodes, total, seed)
		specs := []Spec{
			{Kind: KindChurn, Seed: seed, Start: start, Every: every, MaxDown: maxDown},
			{Kind: KindStorm, Seed: seed + 1, Start: start, Center: center, Radius: radius, Recover: rec},
			{Kind: KindDiurnal, Start: start, Period: every, Depth: 0.5},
		}
		sch, err := Compile(specs, env)
		if err != nil {
			return
		}
		checkSchedule(t, sch, env)
		again, err := Compile(specs, env)
		if err != nil || !reflect.DeepEqual(sch, again) {
			t.Fatalf("compile is not pure: %+v vs %+v (err %v)", sch, again, err)
		}
	})
}
