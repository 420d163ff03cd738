package stringfigure

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// The golden session digests anchor the session layer to history: the
// cross-core and on/off suites are relative (event == reference, sink ==
// no sink) and would not notice both sides drifting together, so this
// table pins the absolute bytes. testdata/golden_session_digests.json was
// recorded at commit 465c710 (before the session layer collapsed onto one
// run loop) and changes only deliberately:
//
//	go test -run TestGoldenSessionDigests -update-golden <commit> .
var updateGolden = flag.String("update-golden", "",
	"rewrite testdata/golden_session_digests.json from the current code, recorded at the named `commit`")

const goldenDigestFile = "testdata/golden_session_digests.json"

// goldenFile is the checked-in table: where it was recorded and one
// sha256 per case and per telemetry mode ("<case>" with a 256-cycle sink,
// "<case>/nosink" without).
type goldenFile struct {
	RecordedAt string            `json:"recorded_at"`
	Digests    map[string]string `json:"digests"`
}

// goldenCase is one pinned run. events marks cases whose scenario must
// stamp at least one applied event onto the telemetry stream, so a digest
// can never be that of a schedule that silently compiled to nothing.
type goldenCase struct {
	name     string
	design   string
	cfg      SessionConfig
	workload Workload
	events   bool
}

// goldenPlain is the scenario-free synthetic config (flow accounting and
// trace sampling on, so their telemetry bytes are pinned too).
var goldenPlain = SessionConfig{Rate: 0.08, Warmup: 400, Measure: 1600, Seed: 9,
	FlowBuckets: 4, TraceSampleEvery: 8}

func goldenCases() []goldenCase {
	uniform := SyntheticWorkload{Pattern: "uniform"}
	wordcount := TraceWorkload{Workload: TraceWorkloads()[0]}
	var cases []goldenCase
	for _, d := range Designs() {
		cases = append(cases,
			goldenCase{"plain/" + d, d, goldenPlain, uniform, false},
			goldenCase{"diurnal/" + d, d, SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1600, Seed: 7,
				Scenario: []ScenarioSpec{DiurnalRate(800, 0.5)}}, uniform, true},
			goldenCase{"bursty/" + d, d, SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1600, Seed: 7,
				Scenario: []ScenarioSpec{BurstyRate(300, 100, 3)}}, uniform, true},
			goldenCase{"trace/" + d, d, SessionConfig{Seed: 5, Ops: 300, Sockets: 2,
				MaxCycles: 3_000_000}, wordcount, false},
		)
	}
	var off, on []GateEvent
	for _, v := range []int{8, 9, 10, 11} {
		off = append(off, GateEvent{Cycle: 3000, Node: v, On: false})
		on = append(on, GateEvent{Cycle: 3000 + 31250, Node: v, On: true})
	}
	gated := SessionConfig{Rate: 0.05, Warmup: 500, Measure: 40_000, Seed: 7}
	with := func(c SessionConfig, specs ...ScenarioSpec) SessionConfig {
		c.Scenario = specs
		return c
	}
	traced := SessionConfig{Seed: 5, Ops: 400, Sockets: 2, MaxCycles: 3_000_000}
	return append(cases,
		goldenCase{"regen-after-warmup/s2", "s2", SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1600, Seed: 7,
			Scenario: []ScenarioSpec{RegenerateS2(1000, 4, 500)}}, uniform, true},
		goldenCase{"regen-before-warmup/s2", "s2", SessionConfig{Rate: 0.05, Warmup: 900, Measure: 1600, Seed: 7,
			Scenario: []ScenarioSpec{RegenerateS2(300, 4, 200)}}, uniform, true},
		goldenCase{"churn/sf", "sf", with(gated, Churn(32_000, 2)), uniform, true},
		goldenCase{"storm+diurnal/sf", "sf",
			with(gated, FailureStorm(3000, 4, 2, 31250), DiurnalRate(8000, 0.5)), uniform, true},
		goldenCase{"churn-trace-quadrant/sf", "sf", with(gated, ChurnTrace(append(off, on...)...)), uniform, true},
		// The second epoch sits 100 cycles after the first: Section VI's
		// minimum reconfiguration interval defers it by a full 100 us.
		goldenCase{"churn-trace-close-epochs/sf", "sf", with(gated, ChurnTrace(
			GateEvent{Cycle: 3000, Node: 8, On: false},
			GateEvent{Cycle: 3100, Node: 9, On: false})), uniform, true},
		goldenCase{"trace+churn-trace/sf", "sf", with(traced, ChurnTrace(
			GateEvent{Cycle: 500, Node: 8, On: false},
			GateEvent{Cycle: 500, Node: 9, On: false})), wordcount, true},
		goldenCase{"trace+storm/sf", "sf", with(traced, FailureStorm(500, 4, 1, 0)), wordcount, true},
	)
}

// goldenRun executes one case and returns the digest of its Result plus
// telemetry stream, and how many scenario events the stream carried.
func goldenRun(t *testing.T, c goldenCase, sink bool) (string, int) {
	t.Helper()
	net := mustNet(t, c.design, 16)
	cfg := c.cfg
	var out sessionOutput
	applied := 0
	if sink {
		cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
			out.Snaps = append(out.Snaps, s)
			applied += len(s.Scenario)
		})
	}
	res, err := net.NewSession(cfg).Run(c.workload)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out.Result = res
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("%s: marshal: %v", c.name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), applied
}

// TestGoldenSessionDigests pins Result and telemetry bytes, with and
// without a sink, over designs x {plain, rate scenarios, trace}, both S2
// regeneration orders, and the gate scenarios on sf (open- and
// closed-loop) to the table recorded at 465c710.
func TestGoldenSessionDigests(t *testing.T) {
	got := make(map[string]string)
	for _, c := range goldenCases() {
		on, applied := goldenRun(t, c, true)
		got[c.name] = on
		got[c.name+"/nosink"], _ = goldenRun(t, c, false)
		if c.events && applied == 0 {
			t.Errorf("%s: scenario stamped no events on the telemetry stream", c.name)
		}
	}

	// A scenario that compiles to zero events is the plain run, byte for
	// byte, in both telemetry modes.
	empty := goldenCase{name: "empty-churn-trace/dm", design: "dm", cfg: goldenPlain,
		workload: SyntheticWorkload{Pattern: "uniform"}}
	empty.cfg.Scenario = []ScenarioSpec{ChurnTrace()}
	for _, sink := range []bool{true, false} {
		key := "plain/dm"
		if !sink {
			key += "/nosink"
		}
		if d, _ := goldenRun(t, empty, sink); d != got[key] {
			t.Errorf("zero-event ChurnTrace() on dm (sink=%v) = %s, want the plain run's %s", sink, d, got[key])
		}
	}

	if *updateGolden != "" {
		b, err := json.MarshalIndent(goldenFile{RecordedAt: *updateGolden, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d digests)", goldenDigestFile, len(got))
		return
	}
	var want goldenFile
	b, err := os.ReadFile(goldenDigestFile)
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Digests) != len(got) {
		t.Errorf("%s holds %d digests, the suite produces %d", goldenDigestFile, len(want.Digests), len(got))
	}
	for name, d := range got {
		if want.Digests[name] != d {
			t.Errorf("%s: digest %s, recorded %q", name, d, want.Digests[name])
		}
	}
}
