package stringfigure

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/golden"
)

// goldenRecord is one case's entry in testdata/golden_sessions.json: the
// Result of its run with a 256-cycle telemetry sink, which the run without
// a sink must reproduce, and the sha256 of the sink's JSON-encoded snapshot
// stream. The cross-core and on/off suites are relative (event ==
// reference, sink == no sink) and would not notice both sides drifting
// together; this file anchors the session layer to history and changes
// only on purpose:
//
//	go test . -run TestGoldenSessionDigests -update
type goldenRecord struct {
	Result    Result
	Telemetry string
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
	with := func(c SessionConfig, specs ...ScenarioSpec) SessionConfig {
		c.Scenario = specs
		return c
	}
	rated := SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1600, Seed: 7}
	var cases []goldenCase
	for _, d := range Designs() {
		cases = append(cases,
			goldenCase{"plain/" + d, d, goldenPlain, uniform, false},
			goldenCase{"diurnal/" + d, d, with(rated, DiurnalRate(800, 0.5)), uniform, true},
			goldenCase{"bursty/" + d, d, with(rated, BurstyRate(300, 100, 3)), uniform, true},
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
	traced := SessionConfig{Seed: 5, Ops: 400, Sockets: 2, MaxCycles: 3_000_000}
	late := rated
	late.Warmup = 900
	return append(cases,
		goldenCase{"regen-after-warmup/s2", "s2", with(rated, RegenerateS2(1000, 4, 500)), uniform, true},
		goldenCase{"regen-before-warmup/s2", "s2", with(late, RegenerateS2(300, 4, 200)), uniform, true},
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

// goldenRun executes one case with a telemetry sink and without one and
// returns its record.
func goldenRun(t *testing.T, c goldenCase) goldenRecord {
	t.Helper()
	run := func(cfg SessionConfig) Result {
		res, err := mustNet(t, c.design, 16).NewSession(cfg).Run(c.workload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res
	}
	var snaps []TelemetrySnapshot
	applied := 0
	res := run(c.cfg.WithTelemetry(256, func(s TelemetrySnapshot) {
		snaps = append(snaps, s)
		applied += len(s.Scenario)
	}))
	if plain := run(c.cfg); plain != res {
		t.Errorf("%s: Result without a sink %+v, with one %+v", c.name, plain, res)
	}
	if c.events && applied == 0 {
		t.Errorf("%s: scenario stamped no events on the telemetry stream", c.name)
	}
	b, err := json.Marshal(snaps)
	if err != nil {
		t.Fatalf("%s: marshal: %v", c.name, err)
	}
	sum := sha256.Sum256(b)
	return goldenRecord{res, hex.EncodeToString(sum[:])}
}

// TestGoldenSessionDigests pins Result and telemetry stream, with and
// without a sink, over designs x {plain, rate scenarios, trace}, both S2
// regeneration orders, and the gate scenarios on sf (open- and
// closed-loop).
func TestGoldenSessionDigests(t *testing.T) {
	got := make(map[string]goldenRecord)
	for _, c := range goldenCases() {
		got[c.name] = goldenRun(t, c)
	}

	// A scenario that compiles to zero events is the plain run, byte for
	// byte, in both telemetry modes.
	empty := goldenCase{name: "empty-churn-trace/dm", design: "dm", cfg: goldenPlain,
		workload: SyntheticWorkload{Pattern: "uniform"}}
	empty.cfg.Scenario = []ScenarioSpec{ChurnTrace()}
	if rec := goldenRun(t, empty); rec != got["plain/dm"] {
		t.Errorf("zero-event ChurnTrace() on dm = %+v, want the plain run's %+v", rec, got["plain/dm"])
	}

	golden.JSON(t, "testdata/golden_sessions.json", got)
}

// networkReads is one network's entry in
// testdata/golden_network_reads.json: every read the Network offers
// besides running a session, with adjacency rows, routes and the alive
// mask written as strings to keep the file reviewable.
type networkReads struct {
	Out        []string // OutNeighbors of every router
	Routes     []string // "src->dst: path" or "src->dst: error"
	Alive      string   // one '1' or '0' per node
	AliveCount int
	Paths      PathStats // PathLengths(0)
	Paths16    PathStats // PathLengths(16)
	Reconfig   ReconfigStats
}

// readNetwork records every read of net over a fixed set of node pairs.
func readNetwork(net *Network) networkReads {
	ints := func(vs []int) string { return strings.Trim(fmt.Sprint(vs), "[]") }
	var r networkReads
	for v := range net.Routers() {
		r.Out = append(r.Out, ints(net.OutNeighbors(v)))
	}
	for src := 0; src < net.Nodes(); src += 5 {
		dst := (src*29 + 7) % net.Nodes()
		path, err := net.Route(src, dst)
		line := fmt.Sprintf("%d->%d: %s", src, dst, ints(path))
		if err != nil {
			line = fmt.Sprintf("%d->%d: %v", src, dst, err)
		}
		r.Routes = append(r.Routes, line)
	}
	for v := range net.Nodes() {
		r.Alive += map[bool]string{true: "1", false: "0"}[net.Alive(v)]
	}
	r.AliveCount = net.AliveCount()
	r.Paths, r.Paths16 = net.PathLengths(0), net.PathLengths(16)
	r.Reconfig = net.ReconfigStats()
	return r
}

// TestGoldenNetworkReads pins OutNeighbors, Route, Alive, AliveCount,
// PathLengths and ReconfigStats of the six designs at N=64, and of sf
// after three GateOffs and after a SetMounted that unmounts a quarter of
// the nodes.
func TestGoldenNetworkReads(t *testing.T) {
	got := make(map[string]networkReads)
	for _, d := range Designs() {
		got[d] = readNetwork(mustNet(t, d, 64))
	}
	gated := mustNet(t, "sf", 64)
	for _, v := range []int{5, 20, 41} {
		if err := gated.GateOff(v); err != nil {
			t.Fatal(err)
		}
	}
	got["sf/gated"] = readNetwork(gated)
	mounted := mustNet(t, "sf", 64)
	mask := make([]bool, 64)
	for v := range mask {
		mask[v] = v < 48
	}
	if err := mounted.SetMounted(mask); err != nil {
		t.Fatal(err)
	}
	got["sf/mounted"] = readNetwork(mounted)
	golden.JSON(t, "testdata/golden_network_reads.json", got)
}
