package experiments

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/stats"
)

// quick is the reduced simulation budget of sfexp -quick: 600 warm-up and
// 1500 measured cycles per point, saturation searched in 10% steps.
var quick = stringfigure.SessionConfig{Warmup: 600, Measure: 1500, Seed: 1}

const quickStep = 0.10

func TestFig5Shape(t *testing.T) {
	s, err := Fig5([]int{50, 100}, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	for _, row := range s.Rows {
		jf, s2, sf := row[1], row[2], row[3]
		if jf <= 0 || s2 <= 0 || sf <= 0 {
			t.Fatalf("non-positive path length in %v", row)
		}
		// SURG claim: SF path lengths within 1.5 hops of Jellyfish.
		if sf-jf > 1.5 {
			t.Errorf("SF path %v much worse than Jellyfish %v", sf, jf)
		}
	}
	// Path length grows with N.
	if s.Rows[1][3] < s.Rows[0][3]-0.2 {
		t.Errorf("SF path shrank with size: %v -> %v", s.Rows[0][3], s.Rows[1][3])
	}
}

func TestFig9aShape(t *testing.T) {
	s, err := Fig9a([]int{16, 128}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// At 128 nodes the mesh should have clearly more hops than SF.
	row := s.Rows[1]
	dm, sf := row[1], row[6]
	if dm <= sf {
		t.Errorf("DM hops (%v) should exceed SF hops (%v) at 128 nodes", dm, sf)
	}
	p10, p90 := row[7], row[8]
	if p10 > p90 {
		t.Errorf("P10 %v > P90 %v", p10, p90)
	}
	if p90 <= 0 {
		t.Error("P90 missing")
	}
}

func TestBisectionSeries(t *testing.T) {
	s, err := Bisection([]int{16}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Rows[0]
	if row[1] <= 0 || row[2] <= 0 || row[3] <= 0 {
		t.Errorf("non-positive bandwidths: %v", row)
	}
	// SF's random topology should beat the mesh's bisection at 16 nodes.
	if row[2] < row[1] {
		t.Errorf("SF bisection %v below mesh %v", row[2], row[1])
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	series, err := Fig10([]int{16}, []string{"uniform"}, quick, quickStep)
	if err != nil {
		t.Fatal(err)
	}
	row := series[0].Rows[0]
	// Every supported design saturates somewhere in (0,100]; unsupported
	// scales are recorded as 0 (FB/AFB below 128 nodes).
	for i, v := range row[1:] {
		if !design.Supports(design.Names[i], 16) {
			if v != 0 {
				t.Errorf("unsupported design %s has value %v", design.Names[i], v)
			}
			continue
		}
		if v <= 0 || v > 100 {
			t.Errorf("design %s saturation = %v%%", design.Names[i], v)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	series, err := Fig11(16, []string{"uniform"}, []float64{0.05, 0.2}, quick)
	if err != nil {
		t.Fatal(err)
	}
	s := series[0]
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// SF latency at low load must be positive and finite.
	if s.Rows[0][6] <= 0 {
		t.Errorf("SF latency missing: %v", s.Rows[0])
	}
}

func TestTable2(t *testing.T) {
	s, err := Table2([]int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(design.Names) {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	out := s.String()
	for _, kind := range design.Names {
		if !strings.Contains(out, kind) {
			t.Errorf("missing design %s in table", kind)
		}
	}
	// FB ports must exceed SF ports at 256.
	var fbPorts, sfPorts float64
	for i, label := range s.Labels {
		if label == "fb" {
			fbPorts = s.Rows[i][4]
		}
		if label == "sf" {
			sfPorts = s.Rows[i][4]
		}
	}
	if fbPorts <= sfPorts {
		t.Errorf("FB ports (%v) should exceed SF ports (%v)", fbPorts, sfPorts)
	}
}

func TestConnectionBound(t *testing.T) {
	s, err := ConnectionBound([]int{64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Rows[0]
	if row[2] > row[3] {
		t.Errorf("uni wires %v exceed bound %v", row[2], row[3])
	}
}

func TestAblationLookahead(t *testing.T) {
	s, err := AblationLookahead([]int{64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Rows[0]
	oneHop, twoHop, bfs := row[1], row[2], row[3]
	if twoHop > oneHop {
		t.Errorf("2-hop tables (%v) worse than 1-hop (%v)", twoHop, oneHop)
	}
	if twoHop < bfs-1e-9 {
		t.Errorf("greedy (%v) beats BFS optimal (%v)?", twoHop, bfs)
	}
}

func TestAblationShortcuts(t *testing.T) {
	s, err := AblationShortcuts(64, []float64{0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Rows[0]
	sfConn, s2Conn := row[2], row[4]
	if sfConn < 100 {
		t.Errorf("healed SF network not fully connected: %v%%", sfConn)
	}
	if s2Conn > sfConn {
		t.Errorf("unhealed network (%v%%) beats healed (%v%%)", s2Conn, sfConn)
	}
}

func TestWorkloadRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation")
	}
	cfg := stringfigure.SessionConfig{Ops: 400, Sockets: 2, Window: 8, Threads: 1, MaxCycles: 5_000_000, Seed: 1}
	res, err := RunWorkload("sf", "grep", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.TotalEnergyPJ <= 0 {
		t.Errorf("bad results: %+v", res)
	}
}

// TestFig12MatchesRunWorkload pins Figure 12's sweeps to the standalone
// sessions they stand for: every normalized cell is the ratio of the
// matching RunWorkload results. Each cell's session seed is cfg.Seed,
// pinned through the PointSeed inverse; seed 0 is the case a Point.Seed
// override could not express.
func TestFig12MatchesRunWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation sweep")
	}
	workloads := []string{"grep", "redis"}
	for _, seed := range []int64{0, 1} {
		cfg := stringfigure.SessionConfig{Ops: 300, Sockets: 2, Window: 8, Threads: 1, MaxCycles: 5_000_000, Seed: seed}
		throughput, energy, err := Fig12(workloads, 16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]map[string]stringfigure.Result{}
		for _, kind := range Fig12Designs {
			runs[kind] = map[string]stringfigure.Result{}
			for _, wl := range workloads {
				if runs[kind][wl], err = RunWorkload(kind, wl, 16, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		for row, wl := range workloads {
			for col, kind := range []string{"odm", "afb", "s2", "sf"} {
				want := runs[kind][wl].IPC / runs["dm"][wl].IPC
				if got := throughput.Rows[row][col]; got != want {
					t.Errorf("seed %d, %s throughput of %s = %v, want RunWorkload ratio %v", seed, wl, kind, got, want)
				}
			}
			for col, kind := range []string{"dm", "odm", "s2", "sf"} {
				want := runs[kind][wl].TotalEnergyPJ / runs["afb"][wl].TotalEnergyPJ
				if got := energy.Rows[row][col]; got != want {
					t.Errorf("seed %d, %s energy of %s = %v, want RunWorkload ratio %v", seed, wl, kind, got, want)
				}
			}
		}
	}
}

// TestFigureCellsWorkerInvariance runs every pooled figure and study, at
// reduced sizes, on cell pools of width 1 and 4: every table must print
// the same, and a grid with failing cells must report the same —
// lowest-index — error. At width 1 the Figure 10 and 11 cells must also
// equal the serial loops they replace: one Saturation call per cell, one
// Sweep per (pattern, design) rate axis.
func TestFigureCellsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	trace := stringfigure.SessionConfig{Ops: 300, Sockets: 2, Window: 8, Threads: 1, MaxCycles: 5_000_000, Seed: 1}
	patterns10, rates11 := []string{"uniform", "hotspot"}, []float64{0.05, 0.3, 0.6}
	var s10, s11 []*stats.Series
	run := func() (tables []string, errs []error) {
		add := func(err error, series ...*stats.Series) {
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range series {
				tables = append(tables, s.String())
			}
		}
		var err error
		s10, err = Fig10([]int{16}, patterns10, quick, quickStep)
		add(err, s10...)
		s11, err = Fig11(16, nil, rates11, quick)
		add(err, s11...)
		tp, en, err := Fig12([]string{"grep", "redis"}, 16, trace)
		add(err, tp, en)
		s, err := Fig5([]int{64, 128}, 2, 16)
		add(err, s)
		s, err = Fig9a([]int{16, 64, 128}, 16, 1)
		add(err, s)
		s, err = Table2([]int{128, 256})
		add(err, s)
		s, err = ConnectionBound([]int{64, 128}, 1)
		add(err, s)
		s, err = Bisection([]int{16, 64}, 4, 1)
		add(err, s)
		s, err = ProcessorPlacement(32, 0.1, quick)
		add(err, s)
		s, err = QuantizationStudy(64, nil, 200, 1)
		add(err, s)
		s, err = MetaCubeStudy(64, []int{8, 32}, 0.05, quick)
		add(err, s)
		s, err = Fig9b(16, []string{"grep", "redis"}, []float64{0, 0.25}, 300, 1)
		add(err, s)
		s, err = AblationUniBidi([]int{32}, quick, quickStep)
		add(err, s)
		s, err = AblationLookahead([]int{64}, 1)
		add(err, s)
		s, err = AblationShortcuts(64, nil, 1)
		add(err, s)
		s, err = AblationAdaptiveThreshold(16, 0.3, nil, quick)
		add(err, s)
		_, err = Fig10([]int{16}, []string{"uniform", "bogus-a", "bogus-b"}, quick, quickStep)
		errs = append(errs, err)
		_, err = Fig11(16, []string{"uniform", "bogus-a", "bogus-b"}, []float64{0.05, 0.3}, quick)
		errs = append(errs, err)
		_, err = Fig9b(16, []string{"grep", "bogus-a", "bogus-b"}, []float64{0, 0.25}, 300, 1)
		errs = append(errs, err)
		return tables, errs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tables1, errs1 := run()
	for d, kind := range design.Names {
		if !design.Supports(kind, 16) {
			continue
		}
		net, err := buildNet(kind, 16, quick.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for p, pattern := range patterns10 {
			sat, err := net.Saturation(stringfigure.SyntheticWorkload{Pattern: pattern}, quick, quickStep)
			if got := s10[p].Rows[0][1+d]; err != nil || got != sat*100 {
				t.Errorf("Figure 10 %s %s = %v, serial search %v (%v)", pattern, kind, got, sat*100, err)
			}
		}
		for p, pattern := range Fig11Patterns {
			points := stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: pattern}, rates11)
			for r, res := range net.SweepAll(quick, points, 0) {
				want := res.AvgLatencyNs
				if res.Deadlocked || res.Delivered == 0 {
					want = 0
				}
				if got := s11[p].Rows[r][1+d]; res.Err != nil || got != want {
					t.Errorf("Figure 11 %s %s rate %v = %v, serial sweep %v (%v)", pattern, kind, rates11[r], got, want, res.Err)
				}
			}
		}
	}
	runtime.GOMAXPROCS(4)
	tables4, errs4 := run()
	for i := range tables1 {
		if tables1[i] != tables4[i] {
			t.Errorf("table %d differs between pool widths 1 and 4:\n%s\nvs\n%s", i, tables1[i], tables4[i])
		}
	}
	for i := range errs1 {
		if !errors.Is(errs1[i], stringfigure.ErrUnknownPattern) || !strings.Contains(errs1[i].Error(), "bogus-a") {
			t.Errorf("call %d at width 1: err = %v, want the unknown pattern bogus-a", i, errs1[i])
		}
		if errs1[i] == nil || errs4[i] == nil || errs1[i].Error() != errs4[i].Error() {
			t.Errorf("call %d errors differ between pool widths 1 and 4: %v vs %v", i, errs1[i], errs4[i])
		}
	}
}

func TestFig9bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation sweep")
	}
	s, err := Fig9b(32, []string{"grep"}, []float64{0, 0.25}, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if s.Rows[0][1] != 1 {
		t.Errorf("baseline EDP not normalized to 1: %v", s.Rows[0][1])
	}
	if s.Rows[1][1] <= 0 {
		t.Errorf("gated EDP missing: %v", s.Rows[1])
	}
}

// TestFig9bNormalizesAgainstZeroAnywhere pins Figure 9(b)'s normalization
// to the 0% cell wherever it sits in the fraction list: the rows of
// {0.2, 0} are the rows of {0, 0.2} in reverse, and a list with no 0 keeps
// its normalized cells at 0.
func TestFig9bNormalizesAgainstZeroAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation sweep")
	}
	wls := []string{"grep", "redis"}
	up, err := Fig9b(16, wls, []float64{0, 0.2}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	down, err := Fig9b(16, wls, []float64{0.2, 0}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range up.Rows {
		if got := down.Rows[len(down.Rows)-1-i]; !slices.Equal(got, row) {
			t.Errorf("row %v of {0.2, 0} = %v, want %v", row[0], got, row)
		}
	}
	if up.Rows[1][1] == 0 || up.Rows[1][2] == 0 {
		t.Errorf("gated row not normalized: %v", up.Rows[1])
	}
	none, err := Fig9b(16, wls, []float64{0.2}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{20, 0, 0}; !slices.Equal(none.Rows[0], want) {
		t.Errorf("row with no 0%% baseline = %v, want %v", none.Rows[0], want)
	}
}

func TestProcessorPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := ProcessorPlacement(32, 0.1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 arrangements", len(s.Rows))
	}
	for i, row := range s.Rows {
		if row[0] <= 0 {
			t.Errorf("row %d has no sources", i)
		}
		if row[1] <= 0 {
			t.Errorf("arrangement %s has zero latency", s.Labels[i])
		}
	}
	// "all" uses every node as a source.
	last := s.Rows[len(s.Rows)-1]
	if last[0] != 32 {
		t.Errorf("all-arrangement sources = %v, want 32", last[0])
	}
}

func TestQuantizationStudy(t *testing.T) {
	s, err := QuantizationStudy(256, []int{0, 7}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, quant := s.Rows[0], s.Rows[1]
	if exact[1] != 100 {
		t.Errorf("exact coordinates delivered %v%%, want 100", exact[1])
	}
	if quant[1] >= exact[1] {
		t.Errorf("7-bit coordinates (%v%%) should deliver less than exact (%v%%) at N=256",
			quant[1], exact[1])
	}
}

func TestMetaCubeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s, err := MetaCubeStudy(64, []int{8, 32}, 0.05, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	small, large := s.Rows[0], s.Rows[1]
	if large[1] <= small[1] {
		t.Errorf("bigger cubes (%v%%) should keep more links intra-cube than smaller (%v%%)",
			large[1], small[1])
	}
	for _, row := range s.Rows {
		if row[2] <= 0 || row[3] <= 0 {
			t.Errorf("missing latency in %v", row)
		}
	}
}
