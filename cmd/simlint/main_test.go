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
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lintutil"
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
func findingKeys(rep *lintutil.Report) map[string]int {
	got := make(map[string]int)
	for _, f := range rep.Findings() {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Position.Filename), f.Position.Line, f.Analyzer)]++
	}
	return got
}

func TestAnalyzersOnFixtures(t *testing.T) {
	const (
		nondetDir   = "testdata/src/nondet"
		maporderDir = "testdata/src/maporder"
		dispatchDir = "testdata/src/msgdispatch"
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &lintutil.Report{}
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
// types or packages that no longer exist fails the gate instead of
// silently checking nothing.
func TestContractDriftIsLoud(t *testing.T) {
	rep := &lintutil.Report{}
	dispatch := dispatchContract{
		pkg: "testdata/src/nondet", enumType: "msgType",
		constPrefix: "msg", frameType: "frame", discField: "Type",
		sides: map[string]string{"a.go": "a", "b.go": "b"},
	}
	unloaded := dispatch
	unloaded.pkg = "no/such/pkg"
	cfg := gateConfig{
		targets:  []target{{dir: "testdata/src/nondet"}},
		dispatch: []dispatchContract{dispatch, unloaded},
	}
	if _, err := runGate(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 2 {
		for _, f := range rep.Findings() {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("want 2 contract-drift findings, got %d", rep.Len())
	}
}

// TestRealTreeIsClean runs the exact shipped gate configuration against
// the repository and requires a clean, non-trivial result — the same
// invocation CI performs via `go run ./cmd/simlint`.
func TestRealTreeIsClean(t *testing.T) {
	t.Chdir("../..") // realConfig paths are module-root-relative
	rep := &lintutil.Report{}
	stats, err := runGate(realConfig(), rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings() {
		t.Errorf("finding: %s", f)
	}
	// The surface must be non-trivial, or the gate is silently checking
	// nothing (e.g. a renamed type dropped the protocol contract).
	if stats.packages < 8 || stats.msgConsts < 9 {
		t.Errorf("gate surface shrank: %+v", stats)
	}
}
