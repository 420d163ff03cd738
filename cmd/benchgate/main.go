// Command benchgate turns `go test -bench` output into a dated JSON
// benchmark record and gates it against a checked-in baseline, so CI
// catches performance regressions instead of humans eyeballing logs.
//
// Usage:
//
//	go test -bench 'Sweep' -benchtime 2x . | \
//	  benchgate -out BENCH_$(date +%F).json -baseline bench_baseline.json
//
// benchgate reads the benchmark text from stdin (or -in FILE), parses
// every result line into {ns/op, custom metrics}, and writes one JSON
// document with the full parse. When -baseline names an existing file,
// the gated metrics are compared benchmark by benchmark, direction-aware:
// throughput-like metrics (points/s, speedup, cycles/s) are floors — a
// current value below baseline*(1-tolerance) fails with exit 1 — and
// count-like metrics (allocs/op) are hard ceilings with no tolerance, so
// a 0-allocs baseline fails on the first allocation. Benchmarks present
// in the baseline but absent from the run — e.g. a parallel benchmark
// that skips on a single-CPU host — are reported and tolerated, so the
// gate degrades gracefully across machine shapes.
//
// The baseline records floor values calibrated below typical CI-runner
// throughput (not this-machine measurements): the gate is meant to catch
// an order-of-magnitude regression — an accidental O(n^2), a lost worker
// pool — not a noisy-neighbor blip. Refresh it with -write-baseline when
// the performance envelope legitimately moves.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op column.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every custom b.ReportMetric column (unit -> value).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// record is the BENCH_<date>.json document.
type record struct {
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// floorMetrics are the higher-is-better metrics the baseline comparison
// enforces as floors (with -tolerance headroom); everything else is recorded
// but not gated (figure-of-merit metrics like sf_sat_pct are simulation
// outputs, not performance).
var floorMetrics = map[string]bool{"points/s": true, "speedup": true, "cycles/s": true, "sessions/s": true}

// ceilingMetrics are lower-is-better metrics enforced as hard ceilings, with
// no tolerance. allocs/op is a deterministic count: a baseline of 0 means
// any allocation in the hot loop fails the gate. ns/access (the trace
// kernel's cost per cache-model access) is a timing, so its headroom is in
// the baseline value itself.
var ceilingMetrics = map[string]bool{"allocs/op": true, "ns/access": true}

// benchLine matches `BenchmarkName-P  N  v unit  v unit ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r io.Reader) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{Iterations: iters, Metrics: make(map[string]float64)}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[unit] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		out[name] = res
	}
	return out, sc.Err()
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text input (default stdin)")
		out       = flag.String("out", "", "write the dated JSON record here")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against (missing file = no gate)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional regression below baseline")
		writeBase = flag.Bool("write-baseline", false, "write -baseline from this run's gated metrics instead of gating")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	benches, err := parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parse: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines found in input")
		os.Exit(1)
	}
	rec := record{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benches,
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *out, len(benches))
	}

	if *baseline == "" {
		return
	}
	if *writeBase {
		base := record{Date: rec.Date, GoVersion: rec.GoVersion, GOOS: rec.GOOS,
			GOARCH: rec.GOARCH, Benchmarks: gatedOnly(benches)}
		if err := writeJSON(*baseline, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: wrote baseline %s\n", *baseline)
		return
	}
	bb, err := os.ReadFile(*baseline)
	if os.IsNotExist(err) {
		fmt.Printf("benchgate: no baseline at %s; recording only\n", *baseline)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	var base record
	if err := json.Unmarshal(bb, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: decode baseline: %v\n", err)
		os.Exit(1)
	}

	failed := false
	for name, b := range base.Benchmarks {
		cur, ok := benches[name]
		if !ok {
			fmt.Printf("benchgate: %s: absent from this run (skipped?); tolerated\n", name)
			continue
		}
		for unit, want := range b.Metrics {
			if !floorMetrics[unit] && !ceilingMetrics[unit] {
				continue
			}
			got, ok := cur.Metrics[unit]
			if !ok {
				fmt.Printf("benchgate: %s %s: metric absent from this run; tolerated\n", name, unit)
				continue
			}
			status := "ok"
			if ceilingMetrics[unit] {
				if got > want {
					status = "REGRESSION"
					failed = true
				}
				fmt.Printf("benchgate: %-24s %-10s %10.3f (ceiling %.3f) %s\n",
					name, unit, got, want, status)
				continue
			}
			floor := want * (1 - *tolerance)
			if got < floor {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("benchgate: %-24s %-10s %10.3f (baseline %.3f, floor %.3f) %s\n",
				name, unit, got, want, floor, status)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: performance regression beyond tolerance")
		os.Exit(1)
	}
}

// gatedOnly strips a parse down to the gated metrics for baseline files.
func gatedOnly(in map[string]benchResult) map[string]benchResult {
	out := make(map[string]benchResult)
	for name, b := range in {
		m := make(map[string]float64)
		for unit, v := range b.Metrics {
			if floorMetrics[unit] || ceilingMetrics[unit] {
				m[unit] = v
			}
		}
		if len(m) > 0 {
			out[name] = benchResult{Metrics: m}
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
