package main

// Fixture self-tests: each analyzer runs against a testdata package of
// known-bad (but compiling) code carrying //want:<analyzer> markers, and
// the findings must match the markers exactly — every marked line
// produces exactly one finding of that analyzer, every unmarked line
// stays clean. A final test proves the real tree passes the shipped
// gate configuration, so the fixtures can never drift from the gate
// that CI actually runs.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantMarker is the fixture annotation prefix.
const wantMarker = "//want:"

// wantMarkers scans every .go file in dir for //want:<analyzer> comments
// and returns expected counts keyed "file:line:analyzer".
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			rest := sc.Text()
			for {
				i := strings.Index(rest, wantMarker)
				if i < 0 {
					break
				}
				rest = rest[i+len(wantMarker):]
				analyzer := rest
				if j := strings.IndexAny(analyzer, " \t"); j >= 0 {
					analyzer = analyzer[:j]
				}
				if analyzer == "" {
					continue // prose mentioning the marker, not a marker
				}
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, analyzer)]++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no //want: markers", dir)
	}
	return want
}

// findingKeys shapes a report into the same "file:line:analyzer" counts.
func findingKeys(rep *Report) map[string]int {
	got := make(map[string]int)
	for _, f := range rep.Findings() {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Position.Filename), f.Position.Line, f.Analyzer)]++
	}
	return got
}

func TestAnalyzersOnFixtures(t *testing.T) {
	const (
		nondetDir    = "testdata/src/nondet"
		maporderDir  = "testdata/src/maporder"
		dispatchDir  = "testdata/src/msgdispatch"
		doccovDir    = "testdata/src/doccov"
		hotescapeDir = "testdata/src/hotescape"
	)
	cases := []struct {
		name string
		dir  string
		cfg  gateConfig
	}{
		{
			name: "nondet-source",
			dir:  nondetDir,
			cfg:  gateConfig{targets: []target{{dir: nondetDir, nondet: true}}},
		},
		{
			name: "map-range-order",
			dir:  maporderDir,
			cfg:  gateConfig{targets: []target{{dir: maporderDir, maporder: true}}},
		},
		{
			name: "msg-exhaustive",
			dir:  dispatchDir,
			cfg: gateConfig{
				targets: []target{{dir: dispatchDir}},
				dispatch: []dispatchContract{{
					pkg: dispatchDir, enumType: "msgType", constPrefix: "msg",
					frameType: "frame", discField: "Type",
					sides: map[string]string{"coordinator.go": "coordinator", "worker.go": "worker"},
				}},
			},
		},
		{
			name: "doc-coverage",
			dir:  doccovDir,
			cfg:  gateConfig{targets: []target{{dir: doccovDir, docs: true}}},
		},
		{
			name: "hot-escape",
			dir:  hotescapeDir,
			cfg: gateConfig{targets: []target{{
				dir: hotescapeDir,
				hot: []string{"ring.push", "sim.step", "sim.schedule", "sim.clean"},
			}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Report{}
			if _, err := runGate(tc.cfg, rep); err != nil {
				t.Fatal(err)
			}
			want := wantMarkers(t, tc.dir)
			got := findingKeys(rep)
			for key, n := range want {
				if got[key] != n {
					t.Errorf("want %d finding(s) at %s, got %d", n, key, got[key])
				}
			}
			for key, n := range got {
				if want[key] == 0 {
					t.Errorf("unexpected finding(s) at %s (x%d)", key, n)
				}
			}
			if t.Failed() {
				for _, f := range rep.Findings() {
					t.Logf("finding: %s", f)
				}
			}
		})
	}
}

// TestContractDriftIsLoud proves that a gate configuration pointing at
// types, packages or functions that no longer exist — or a compiler whose
// -m output no longer parses — fails the gate instead of silently checking
// nothing.
func TestContractDriftIsLoud(t *testing.T) {
	rep := &Report{}
	dispatch := dispatchContract{
		pkg: "testdata/src/nondet", enumType: "msgType",
		constPrefix: "msg", frameType: "frame", discField: "Type",
		sides: map[string]string{"a.go": "a", "b.go": "b"},
	}
	unloaded := dispatch
	unloaded.pkg = "no/such/pkg"
	cfg := gateConfig{
		targets: []target{
			{dir: "testdata/src/nondet"},
			// A renamed hot function: listed, but declared nowhere.
			{dir: "testdata/src/hotescape", hot: []string{"sim.gone"}},
			// A build about which -m reports nothing, standing in for a
			// diagnostic format the parser no longer recognizes.
			{dir: "testdata/src/nodiag", hot: []string{"idle"}},
		},
		dispatch: []dispatchContract{dispatch, unloaded},
	}
	if _, err := runGate(cfg, rep); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"msg-exhaustive: contract names package":                             1,
		"msg-exhaustive: no msg* constants":                                  1,
		"hot-escape: hot function sim.gone resolves to no declaration":       1,
		"hot-escape: go build -gcflags=-m testdata/src/nodiag yielded no pa": 1,
	}
	got := make(map[string]int)
	for _, f := range rep.Findings() {
		for prefix := range want {
			if strings.HasPrefix(f.Analyzer+": "+f.Message, prefix) {
				got[prefix]++
			}
		}
	}
	if len(rep.Findings()) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		for _, f := range rep.Findings() {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("want one finding per drift %v, got %v of %d", want, got, len(rep.Findings()))
	}
}

// TestRealTreeIsClean runs the exact shipped gate configuration against
// the repository and requires a clean, non-trivial result — the same
// invocation as `go run ./cmd/simlint`, and the one place `go test ./...`
// enforces all five analyzers.
func TestRealTreeIsClean(t *testing.T) {
	t.Chdir("../..") // realConfig paths are module-root-relative
	rep := &Report{}
	stats, err := runGate(realConfig(), rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings() {
		t.Errorf("finding: %s", f)
	}
	// Every surface must be non-empty, or the gate is silently checking
	// nothing (e.g. a renamed type dropped the protocol contract).
	if what := stats.empty(); what != "" {
		t.Errorf("gate checked 0 %s: %+v", what, stats)
	}
	if stats.packages < 20 || stats.msgConsts < 7 {
		t.Errorf("gate surface shrank: %+v", stats)
	}
	t.Logf("surface: %+v", stats)
}

func TestTypedLoadResolvesCrossPackageTypes(t *testing.T) {
	// Load a leaf package and one that imports other repo packages, in a
	// single call: both must type-check against export data, and their
	// ASTs must carry Uses entries resolving to the right objects.
	pkgs, err := load("../../internal/stats", "../../internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	stats, netsim := pkgs[0], pkgs[1]
	if stats.ImportPath != "repro/internal/stats" || netsim.ImportPath != "repro/internal/netsim" {
		t.Fatalf("import paths = %q, %q", stats.ImportPath, netsim.ImportPath)
	}
	if stats.Types.Scope().Lookup("Histogram") == nil {
		t.Fatal("stats.Histogram not in package scope")
	}
	// netsim imports repro/internal/stats; the type-checker must have
	// resolved that import through export data.
	found := false
	for _, imp := range netsim.Types.Imports() {
		if imp.Path() == "repro/internal/stats" {
			found = true
		}
	}
	if !found {
		t.Fatal("netsim's stats import was not resolved")
	}
	// Every parsed file must contribute identifier resolutions.
	uses := 0
	for _, f := range netsim.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := netsim.Info.Uses[id]; ok {
					uses++
				}
			}
			return true
		})
	}
	if uses == 0 {
		t.Fatal("no identifier uses recorded")
	}
}

func TestTypedLoadSeesBasicTypes(t *testing.T) {
	pkgs, err := load("../../internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	obj := pkgs[0].Types.Scope().Lookup("Histogram")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		t.Fatalf("Histogram is %T, want *types.TypeName", obj)
	}
	if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
		t.Fatalf("Histogram underlying is %T, want struct", tn.Type().Underlying())
	}
}

func TestReportSortsAndFormats(t *testing.T) {
	pkgs, err := load(".")
	if err != nil {
		t.Fatal(err)
	}
	p := pkgs[0]
	var rep Report
	// Record in reverse file order; Findings must come back sorted.
	for i := len(p.Files) - 1; i >= 0; i-- {
		rep.Add(p.Fset, p.Files[i].Pos(), "test-analyzer", "file %d", i)
	}
	fs := rep.Findings()
	if len(fs) != len(p.Files) {
		t.Fatalf("got %d findings, want %d", len(fs), len(p.Files))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Position.Filename > fs[i].Position.Filename {
			t.Fatalf("findings unsorted: %s after %s", fs[i-1].Position.Filename, fs[i].Position.Filename)
		}
	}
	line := fs[0].String()
	if !strings.Contains(line, "test-analyzer:") || !strings.Contains(line, ".go:") {
		t.Fatalf("finding format = %q, want file:line: analyzer: message", line)
	}
}
