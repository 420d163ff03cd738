package stringfigure_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The perf ledger: one BENCH_<date>_<sha>.json at the module root per
// change that claims or disclaims a performance move, holding the paired
// sfperf runs behind the claim. <date> is the day of the runs and <sha> a
// prefix of the measured change's commit. A record measured for its file
// holds, per set of pairs, the last stdout line of every parent and change
// run (`sfperf -workload W -seconds S -seed N`), which is that run's
// result as one JSON object. A transcribed record ("transcribed": true)
// carries what an earlier CHANGES.md entry reported, per pair where it
// listed pairs and as medians where it did not; fields the entry did not
// state are "not recorded" (text) or 0 (seconds).
type benchLedger struct {
	Date        string `json:"date"`
	Change      string `json:"change"` // what the change did, in one line
	ParentSHA   string `json:"parent_sha"`
	ChangeSHA   string `json:"change_sha"`
	Transcribed bool   `json:"transcribed"`
	// Source names where transcribed numbers come from.
	Source string `json:"source,omitempty"`
	Host   struct {
		CPU   string `json:"cpu"`
		VCPUs int    `json:"vcpus"`
	} `json:"host"`
	Go   string     `json:"go"`
	Sets []benchSet `json:"sets"`
}

// benchSet is one series of alternating parent/change pairs of one
// workload at one seed.
type benchSet struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Pairs    []struct {
		Parent benchRun `json:"parent"`
		Change benchRun `json:"change"`
	} `json:"pairs,omitempty"`
	// Medians summarize a transcribed set whose entry reported no pairs.
	Medians *struct {
		Pairs  int                `json:"pairs"`
		Parent map[string]float64 `json:"parent"`
		Change map[string]float64 `json:"change"`
		// Wins counts, per metric, the pairs in which the change read
		// better (higher or lower as BENCHMARK.json declares).
		Wins map[string]int `json:"wins,omitempty"`
	} `json:"medians,omitempty"`
	Note string `json:"note,omitempty"`
}

// benchRun is sfperf's last output line.
type benchRun struct {
	Correct   *bool                  `json:"correct,omitempty"`
	Attempted *int                   `json:"attempted,omitempty"`
	Failed    *int                   `json:"failed,omitempty"`
	Metrics   map[string]benchMetric `json:"metrics"`
}

type benchMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var (
	ledgerName = regexp.MustCompile(`^BENCH_(\d{4}-\d{2}-\d{2})_([0-9a-f]{7,40})\.json$`)
	shaRE      = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
)

// TestPerfLedger reads every BENCH_*.json at the module root and fails on
// a malformed record: a name that does not match its date and change, an
// unknown field, a workload or metric BENCHMARK.json does not declare, a
// unit that differs from the declared one, a non-finite or negative value,
// or, in a measured record, a run that lacks sfperf's correct/attempted/
// failed fields or any end-to-end metric.
func TestPerfLedger(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	var endToEnd []string
	for _, m := range decl.EndToEnd {
		units[m.Name] = m.Unit
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range decl.PerLayer {
		units[m.Name] = m.Unit
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the module root")
	}
	for _, f := range files {
		t.Run(f, func(t *testing.T) {
			for _, e := range checkLedger(f, workloads, units, endToEnd) {
				t.Error(e)
			}
		})
	}
}

// checkLedger returns every problem of one ledger file.
func checkLedger(path string, workloads map[string]bool, units map[string]string, endToEnd []string) []string {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	m := ledgerName.FindStringSubmatch(path)
	if m == nil {
		return []string{"name is not BENCH_<yyyy-mm-dd>_<hex sha>.json"}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var l benchLedger
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return []string{err.Error()}
	}
	if _, err := time.Parse(time.DateOnly, l.Date); err != nil || l.Date != m[1] {
		bad("date %q: want a yyyy-mm-dd date equal to the name's %s", l.Date, m[1])
	}
	if !shaRE.MatchString(l.ParentSHA) || !shaRE.MatchString(l.ChangeSHA) {
		bad("parent_sha %q, change_sha %q: want 7-40 hex digits", l.ParentSHA, l.ChangeSHA)
	}
	if !strings.HasPrefix(l.ChangeSHA, m[2]) && !strings.HasPrefix(m[2], l.ChangeSHA) {
		bad("change_sha %q does not match the name's %s", l.ChangeSHA, m[2])
	}
	if l.ParentSHA == l.ChangeSHA {
		bad("parent and change are one commit, %s", l.ChangeSHA)
	}
	if strings.TrimSpace(l.Change) == "" {
		bad("no change description")
	}
	if l.Transcribed && l.Source == "" {
		bad("transcribed record names no source")
	}
	if l.Host.CPU == "" || l.Host.VCPUs <= 0 || l.Go == "" {
		bad("host %+v, go %q: want a CPU model (or \"not recorded\"), a vCPU count and a Go version", l.Host, l.Go)
	}
	if !l.Transcribed && (l.Host.CPU == "not recorded" || !strings.HasPrefix(l.Go, "go1.")) {
		bad("measured record: host CPU %q and Go %q must be recorded", l.Host.CPU, l.Go)
	}
	if len(l.Sets) == 0 {
		bad("no sets")
	}
	value := func(where, name string, v float64) {
		if _, ok := units[name]; !ok {
			bad("%s: metric %q is not declared in BENCHMARK.json", where, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad("%s: %s = %v", where, name, v)
		}
	}
	run := func(where string, r benchRun) {
		if !l.Transcribed {
			if r.Correct == nil || r.Attempted == nil || r.Failed == nil {
				bad("%s: missing correct, attempted or failed", where)
			} else if *r.Attempted <= 0 || *r.Failed < 0 || *r.Failed > *r.Attempted {
				bad("%s: attempted %d, failed %d", where, *r.Attempted, *r.Failed)
			}
			for _, name := range endToEnd {
				if _, ok := r.Metrics[name]; !ok {
					bad("%s: missing end-to-end metric %s", where, name)
				}
			}
		}
		if len(r.Metrics) == 0 {
			bad("%s: no metrics", where)
		}
		for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
			mv := r.Metrics[name]
			value(where, name, mv.Value)
			if u, ok := units[name]; ok && mv.Unit != u {
				bad("%s: %s in %q, BENCHMARK.json declares %q", where, name, mv.Unit, u)
			}
		}
	}
	for i, s := range l.Sets {
		where := fmt.Sprintf("set %d (%s, seed %d)", i, s.Workload, s.Seed)
		if !workloads[s.Workload] {
			bad("%s: workload not declared in BENCHMARK.json", where)
		}
		if s.Seconds < 0 || !l.Transcribed && s.Seconds == 0 {
			bad("%s: seconds %v", where, s.Seconds)
		}
		switch {
		case len(s.Pairs) > 0 && s.Medians != nil:
			bad("%s: both pairs and medians", where)
		case len(s.Pairs) == 0 && (s.Medians == nil || !l.Transcribed):
			bad("%s: no pairs", where)
		}
		for k, p := range s.Pairs {
			run(fmt.Sprintf("%s pair %d parent", where, k), p.Parent)
			run(fmt.Sprintf("%s pair %d change", where, k), p.Change)
		}
		if md := s.Medians; md != nil {
			if md.Pairs <= 0 || len(md.Parent) == 0 || len(md.Parent) != len(md.Change) {
				bad("%s: medians of %d pairs, %d parent and %d change metrics", where, md.Pairs, len(md.Parent), len(md.Change))
			}
			for _, name := range slices.Sorted(maps.Keys(md.Parent)) {
				value(where+" parent median", name, md.Parent[name])
				if _, ok := md.Change[name]; !ok {
					bad("%s: %s has a parent median and no change median", where, name)
				}
			}
			for _, name := range slices.Sorted(maps.Keys(md.Change)) {
				value(where+" change median", name, md.Change[name])
			}
			for _, name := range slices.Sorted(maps.Keys(md.Wins)) {
				if w := md.Wins[name]; w < 0 || w > md.Pairs {
					bad("%s: %d wins of %s in %d pairs", where, w, name, md.Pairs)
				}
			}
		}
	}
	return errs
}
