// Command sfperf is the repository's benchmark: six named workloads, each a
// closed loop with one client, measured end to end (untraced) and layer by
// layer (traced). BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory says why each was
// chosen and which layer metric should move which end-to-end metric.
//
// Usage:
//
//	go run ./cmd/sfperf [-workload NAME] [-seed S] [-trace 0|1] [-seconds T] [-scale F] [-out FILE]
//
// Without -workload every workload runs, each in its own re-exec'd child
// process. -trace 0 (the default) measures the end-to-end metrics with
// tracing off; -trace 1 repeats the same op list with spans recorded
// around every call into a layer and reports the per-layer metrics
// (-out FILE also writes the spans). -seconds T bounds each timed region
// by time; without it the workload's fixed op list runs, scaled by
// -scale. Every metric prints by name with its unit, outputs are checked,
// and the exit code is nonzero when a check fails. The last line of
// standard output is the run's result as one JSON object.
//
// The model is unvalidated: the repository holds no reference results, so
// no error figure is reported beside any simulated quantity.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// workload is one named workload of the benchmark.
type workload struct {
	name string
	// ops is the length of the fixed op list (at -scale 1).
	ops int
	// round is the number of consecutive ops that hold one of every op
	// kind; a time-bounded region ends on a multiple of it.
	round int
	// setupReps is how many times the set-up sequence is repeated for the
	// setup_s median.
	setupReps int
	build     func(opt options, e env) bench
}

// workloads lists the benchmark's workloads; names and order match
// BENCHMARK.json.
var workloads = []workload{
	{name: "synth-idle-n1024", ops: 200, round: 1, setupReps: 9, build: func(opt options, _ env) bench {
		return &synthBench{nodes: 1024, rate: 0.0003, warmup: 3000, measure: 20000, seed: opt.seed, scale: opt.scale}
	}},
	{name: "synth-loaded-n256", ops: 100, round: 1, setupReps: 9, build: func(opt options, _ env) bench {
		return &synthBench{nodes: 256, rate: 0.20, warmup: 300, measure: 700, loadedProbe: true, seed: opt.seed, scale: opt.scale}
	}},
	{name: "scenario-storm-n64", ops: 180, round: 1, setupReps: 9, build: func(opt options, _ env) bench {
		return &synthBench{nodes: 64, rate: 0.04, warmup: 1000, measure: 39000, storm: true, seed: opt.seed, scale: opt.scale}
	}},
	{name: "trace-loop-n128", ops: 80, round: 8, setupReps: 9, build: func(opt options, _ env) bench {
		return &traceBench{seed: opt.seed}
	}},
	{name: "service-cluster", ops: 250, round: 1, setupReps: 9, build: func(opt options, e env) bench {
		return &serviceBench{seed: opt.seed, scale: opt.scale, tmp: e.tmp}
	}},
	{name: "figures-quick", ops: 2 * len(figureIDs), round: len(figureIDs), setupReps: 3, build: func(opt options, e env) bench {
		return &figuresBench{seed: opt.seed, root: e.root, tmp: e.tmp}
	}},
}

// metric is one declared metric: its name and unit as in BENCHMARK.json.
type metric struct{ name, unit string }

// endToEnd are the metrics of the untraced run. Every workload reports
// every one of them, and none is ever 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metric{
	{"op_p90_ms", "ms"},
	{"sim_cycles_per_s", "cycles/s"},
	{"first_result_p50_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
	{"session.self_ms", "ms"},
	{"session.share", "ratio"},
	{"design.build_ms", "ms"},
	{"topology.generate_ms", "ms"},
	{"routing.tables_build_ms", "ms"},
	{"netsim.new_ms", "ms"},
	{"netsim.run_ms", "ms"},
	{"netsim.ns_per_cycle", "ns"},
	{"netsim.ns_per_flit_hop", "ns"},
	{"netsim.allocs_per_cycle", "count"},
	{"netsim.share", "ratio"},
	{"netsim.n1024_loaded_cycles_per_s", "cycles/s"},
	{"netsim.cycles", "count"},
	{"netsim.injected", "count"},
	{"netsim.delivered", "count"},
	{"netsim.escaped", "count"},
	{"netsim.dropped", "count"},
	{"memsys.cycles", "count"},
	{"memsys.reads_completed", "count"},
	{"memsys.dram_accesses", "count"},
	{"scenario.compile_us", "us"},
	{"reconfig.gate_cycle_us", "us"},
	{"telemetry.overhead_ratio", "ratio"},
	{"telemetry.snapshots", "count"},
	{"trace.generate_ms", "ms"},
	{"trace.ops_generated", "count"},
	{"cache.accesses", "count"},
	{"cache.ns_per_access", "ns"},
	{"cache.miss_ratio", "ratio"},
	{"memsys.build_ms", "ms"},
	{"memsys.run_ms", "ms"},
	{"memsys.ns_per_cycle", "ns"},
	{"memsys.share", "ratio"},
	{"sweep.points_per_s_w1", "1/s"},
	{"sweep.points_per_s_w2", "1/s"},
	{"sweep.speedup_w2", "ratio"},
	{"dist.task_rtt_us", "us"},
	{"dist.tasks", "count"},
	{"dist.requeued", "count"},
	{"cluster.point_overhead_us", "us"},
	{"jobsvc.open_ms", "ms"},
	{"jobsvc.submit_ms", "ms"},
	{"jobsvc.job_overhead_ms", "ms"},
	{"jobsvc.journal_points_per_s", "1/s"},
	{"jobsvc.http_submit_ms", "ms"},
	{"jobsvc.stream_duplicates", "count"},
	{"service.job_self_ms", "ms"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig9a_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.bisect_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12a_s", "s"},
	{"experiments.placement_s", "s"},
	{"experiments.sweep_s", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// result is the last line of standard output, in the form the benchmark
// driver reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all six)")
		seed    = flag.Int64("seed", 1, "workload seed: op i draws its inputs from PointSeed(seed, i)")
		trace   = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		seconds = flag.Float64("seconds", 0, "bound each timed region by this many seconds (0: run the fixed op list)")
		scale   = flag.Float64("scale", 1, "multiply the fixed op list's length (ignored with -seconds)")
		out     = flag.String("out", "", "traced run: write the spans to this file, one JSON line per workload")
		child   = flag.Bool("child", false, "internal: run one workload in this process and print its record")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil || flag.NArg() > 0 || *scale <= 0 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "usage: sfperf [-workload NAME] [-seed S] [-trace 0|1] [-seconds T] [-scale F] [-out FILE]")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "sfperf: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, traced: traced, out: *out}

	if *child {
		e, err := findEnv()
		if err == nil {
			var rec record
			if rec, err = runGuarded(selected[0], opt, e); err == nil {
				err = json.NewEncoder(os.Stdout).Encode(rec)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfperf: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *out != "" {
		if err := os.Remove(*out); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "sfperf: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println("sfperf: model unvalidated: the repository holds no reference results, so no error figure is reported")
	correct := true
	for _, w := range selected {
		rec, err := runChild(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !report(rec) {
			correct = false
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// runChild runs one workload in a re-exec'd child process, so that every
// workload starts from a fresh runtime and owns its peak RSS.
func runChild(w workload, opt options) (record, error) {
	self, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-trace", strconv.FormatBool(opt.traced),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
		"-out", opt.out}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return record{}, fmt.Errorf("child record: %w", err)
	}
	return rec, nil
}

// report prints one workload's record — host, counts, every metric of the
// run's mode by name with its unit, digest, checks — and, last, the result
// line. It returns whether the run's outputs were correct.
func report(rec record) bool {
	mode, declared := "untraced", endToEnd
	if rec.Traced {
		mode, declared = "traced", perLayer
	}
	row := func(name string, value any, unit string) { fmt.Printf("%-34s %v %s\n", name, value, unit) }
	fmt.Printf("== %s | seed %d | %s | closed loop, 1 client ==\n", rec.Workload, rec.Seed, mode)
	row("host.nproc", rec.Host.Nproc, "count")
	row("host.gomaxprocs", rec.Host.Gomaxprocs, "count")
	row("host.go_version", rec.Host.GoVersion, "")
	row("host.revision", rec.Host.Revision, "")
	row("host.calib_ms_before", rec.Host.CalibBeforeMs, "ms")
	row("host.calib_ms_after", rec.Host.CalibAfterMs, "ms")
	row("host.noisy", rec.Host.Noisy, "")
	row("ops_attempted", rec.Attempted, "count")
	row("ops_failed", rec.Failed, "count")
	row("latency_samples", rec.Samples, "count")
	res := result{Correct: len(rec.Problems) == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]measured, len(declared))}
	for _, m := range declared {
		v := rec.Metrics[m.name]
		row(m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		res.Metrics[m.name] = measured{Value: v, Unit: m.unit}
	}
	row("result_digest", "sha256:"+rec.Digest, fmt.Sprintf("(%d ops)", rec.DigestOps))
	if res.Correct {
		row("checks", "ok", "")
	} else {
		row("checks", "FAILED", "")
		fmt.Println("  " + strings.Join(rec.Problems, "\n  "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	return res.Correct
}
