package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestSelfTime checks the span self-time arithmetic on a synthetic tree:
// children are subtracted once where they overlap, clipped to the parent,
// and a grandchild is charged to its own parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},   // overlaps a by 10
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0},  // runs 20 past root
		{Name: "a1", StartNs: 15, EndNs: 25, Parent: 1},  // grandchild
		{Name: "lone", StartNs: 0, EndNs: 7, Parent: -1}, // second root
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 30, 30, 10, 7}
	got := selfNs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d ns, want %d", spans[i].Name, got[i], want[i])
		}
	}

	rec := &recorder{spans: spans}
	tot := rec.totals()
	if tot.ms["a"] != 30e-6 || tot.selfMs["a"] != 20e-6 {
		t.Errorf("totals of a = %v ms, %v ms self", tot.ms["a"], tot.selfMs["a"])
	}
}

// TestRecorderNesting checks that spans opened inside a span become its
// children and carry the current op index.
func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.setOp(3)
	rec.time("outer", func() {
		rec.time("inner", func() {})
	})
	rec.setOp(-1)
	rec.time("after", func() {})
	want := []span{{Name: "outer", Parent: -1, Op: 3}, {Name: "inner", Parent: 0, Op: 3}, {Name: "after", Parent: -1, Op: -1}}
	if len(rec.spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(rec.spans), len(want))
	}
	for i, w := range want {
		g := rec.spans[i]
		if g.Name != w.Name || g.Parent != w.Parent || g.Op != w.Op || g.EndNs < g.StartNs {
			t.Errorf("span %d = %+v, want name/parent/op of %+v", i, g, w)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestDeclarationsMatchBenchmarkJSON checks that the workloads and metrics
// the program prints are exactly the ones BENCHMARK.json declares, in
// order, with the same units and well-formed names.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "cmd/sfperf" {
		t.Errorf("paths = %v, want [cmd/sfperf]", file.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, file.Workloads[i].Name, w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, want []declared, have []metric) {
		if len(want) != len(have) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the program has %d", len(want), kind, len(have))
		}
		for i, m := range have {
			if want[i].Name != m.name || want[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", kind, i, want[i], m)
			}
			if !name.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s metric name %q is malformed or used twice", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

// TestWorkloadsRepeat runs every workload at -scale 0.02 twice, untraced
// and traced: both runs must be correct and agree on the result digest,
// the untraced run must report every end-to-end metric above zero, every
// metric a run stores must be a declared one, and every declared per-layer
// metric must be exercised by at least one workload.
func TestWorkloadsRepeat(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.tmp = t.TempDir()
	declaredNames := map[string]bool{}
	for _, m := range endToEnd {
		declaredNames[m.name] = true
	}
	for _, m := range perLayer {
		declaredNames[m.name] = true
	}
	var mu sync.Mutex
	exercised := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				spans := filepath.Join(e.tmp, w.name+".spans.json")
				var digests [2]string
				for k, traced := range []bool{false, true} {
					opt := options{seed: 1, scale: 0.02, traced: traced}
					if traced {
						opt.out = spans
					}
					rec, err := runWorkload(w, opt, e)
					if err != nil {
						t.Fatal(err)
					}
					if len(rec.Problems) > 0 || rec.Failed > 0 || rec.Attempted < 1 {
						t.Fatalf("traced=%v: %d of %d ops failed, problems %q", traced, rec.Failed, rec.Attempted, rec.Problems)
					}
					digests[k] = rec.Digest
					mu.Lock()
					for name, v := range rec.Metrics {
						if !declaredNames[name] {
							t.Errorf("traced=%v: stores undeclared metric %q", traced, name)
						}
						if v != 0 {
							exercised[name] = true
						}
					}
					mu.Unlock()
					if !traced {
						for _, m := range endToEnd {
							if rec.Metrics[m.name] <= 0 {
								t.Errorf("end-to-end metric %s = %v, want above zero", m.name, rec.Metrics[m.name])
							}
						}
					}
				}
				if digests[0] != digests[1] {
					t.Errorf("untraced digest %s, traced digest %s", digests[0], digests[1])
				}
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("the traced run wrote no span file: %v", err)
				}
			})
		}
	})
	for _, m := range perLayer {
		// Counters of events that should not happen stay at zero on a
		// healthy run, and at this scale figures-quick runs its first
		// experiment only.
		quiet := m.name == "dist.requeued" || m.name == "jobsvc.stream_duplicates" ||
			(strings.HasPrefix(m.name, "experiments.") && m.name != "experiments."+figureIDs[0]+"_s")
		if !exercised[m.name] && !quiet {
			t.Errorf("no workload exercises declared per-layer metric %s", m.name)
		}
	}
}
