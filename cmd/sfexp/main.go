// Command sfexp regenerates the paper's tables and figures. Each experiment
// prints one or more aligned text tables (stats.Series) whose rows are the
// paper's data points; ARCHITECTURE.md maps each package to the paper
// section it reproduces.
//
// Usage:
//
//	sfexp -exp fig5|fig9a|table2|bisect|fig10|fig11|fig12a|fig12b|fig9b|placement|sweep|ablate|all [-quick] [-seed 1]
//	sfexp -exp run [-design sf] [-scale 64] [-pattern uniform] [-rate 0.2] [-quick] [-seed 1]
//	sfexp -exp topo [-design sf] [-scale 64] [-format summary|links|dot] [-seed 1]
//
// -exp all runs every figure id in the order above. Two ids print one
// piece of the work instead and run only by name: run simulates one
// synthetic session on any design (dm, odm, fb, afb, s2, sf) through the
// public Session API and prints its latency, throughput and energy; topo
// prints the String Figure topology of the sf or s2 design — a summary,
// every wire, or a Graphviz DOT rendering. For both, -scale is the node
// count (0 means 64), and run measures the preset's windows: 1500 warm-up
// and 4000 measured cycles, 600 and 1500 with -quick.
//
// With -telemetry FILE, experiments that run through the public Session/
// Sweep layer (currently -exp sweep) additionally stream live NDJSON
// telemetry: one {"type":"interval",...} record per per-point snapshot
// interval — carrying per-src/dst flow buckets (-flow-buckets) and
// per-link utilization deltas — one {"type":"trace",...} record per
// sampled packet-lifecycle event (-trace-every picks the deterministic
// 1-in-K sampling), one {"type":"scenario",...} record per applied
// scenario action when -scenario attaches a schedule (a JSON
// ScenarioSpec array) to the sweep's points, and — when -listen is
// active — one {"type":"progress",...} record per worker per second
// while sweeps drain.
//
// With -metrics ADDR, the same interval stream feeds a Prometheus-text
// /metrics endpoint (scrape http://ADDR/metrics); combined with -listen
// the endpoint also exports per-worker cluster liveness, and remote
// workers' snapshots are forwarded over the wire into the same counters.
//
// With -cpuprofile/-memprofile FILE, the run records pprof profiles of
// whatever experiment it executes — the supported way to profile the
// netsim hot loop under a full-scale workload (see README, "Profiling").
// Profiles are written on normal exit; a failed experiment aborts
// without them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	stringfigure "repro"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
)

// telemetryWriter serializes NDJSON telemetry records from concurrent sweep
// workers onto one file. The first write error is kept and reported at
// close, so a full disk cannot silently truncate the stream.
type telemetryWriter struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	werr error
}

func newTelemetryWriter(path string) (*telemetryWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &telemetryWriter{f: f, enc: json.NewEncoder(f)}, nil
}

// encode writes one record under the lock, retaining the first failure.
// Callers hold w.mu.
func (w *telemetryWriter) encode(rec any) {
	if err := w.enc.Encode(rec); err != nil && w.werr == nil {
		w.werr = err
	}
}

// interval writes one snapshot record; it is the WithTelemetry sink, called
// from every sweep worker concurrently. Sampled packet-lifecycle events and
// applied scenario actions ride the snapshot in; they are split out as their
// own {"type":"trace",...} and {"type":"scenario",...} lines so each NDJSON
// record stays one event at one grain.
func (w *telemetryWriter) interval(s stringfigure.TelemetrySnapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	trace := s.Trace
	s.Trace = nil
	scen := s.Scenario
	s.Scenario = nil
	w.encode(struct {
		Type string `json:"type"`
		stringfigure.TelemetrySnapshot
	}{Type: "interval", TelemetrySnapshot: s})
	for _, ev := range trace {
		w.encode(struct {
			Type string `json:"type"`
			stringfigure.PacketTraceEvent
		}{Type: "trace", PacketTraceEvent: ev})
	}
	for _, ev := range scen {
		w.encode(struct {
			Type string `json:"type"`
			stringfigure.ScenarioEvent
		}{Type: "scenario", ScenarioEvent: ev})
	}
}

// progress writes one record per worker report.
func (w *telemetryWriter) progress(ps []stringfigure.WorkerProgress) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range ps {
		var unixMs int64
		if !p.LastReport.IsZero() {
			unixMs = p.LastReport.UnixMilli()
		}
		w.encode(struct {
			Type      string `json:"type"`
			Worker    int    `json:"worker"`
			Capacity  int    `json:"capacity"`
			Active    int    `json:"active"`
			Completed int64  `json:"completed"`
			UnixMs    int64  `json:"unix_ms"`
		}{Type: "progress", Worker: p.Worker, Capacity: p.Capacity,
			Active: p.Active, Completed: p.Completed, UnixMs: unixMs})
	}
}

func (w *telemetryWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Close()
	if w.werr != nil {
		err = w.werr
	}
	return err
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (fig5, fig9a, fig9b, fig10, fig11, fig12a, fig12b, table2, bisect, sweep, placement, ablate, all; run, topo)")
		quick       = flag.Bool("quick", false, "reduced simulation budget for smoke runs")
		scale       = flag.Int("scale", 0, "restrict the fig10/fig11 network size to one N (0 = figure defaults); with -exp run/topo, the node count (0 = 64)")
		seed        = flag.Int64("seed", 1, "seed")
		designName  = flag.String("design", "sf", "with -exp run/topo: design (dm, odm, fb, afb, s2, sf; topo needs sf or s2)")
		patternName = flag.String("pattern", "uniform", "with -exp run: traffic pattern (Table III)")
		rate        = flag.Float64("rate", 0.2, "with -exp run: injection rate (packets/router/cycle)")
		format      = flag.String("format", "summary", "with -exp topo: output as summary, links or dot")
		listen      = flag.String("listen", "", "run as a distributed-sweep coordinator on this address (host:port); cmd/sfworker processes dial it and figure sweeps fan across them")
		workers     = flag.Int("workers", 0, "with -listen: wait for this many workers to connect before running (0 = start immediately, workers may join mid-run)")
		telemetry   = flag.String("telemetry", "", "stream live NDJSON telemetry (interval snapshots, sampled packet traces; with -listen also per-worker progress) to this file")
		flowBuckets = flag.Int("flow-buckets", 4, "with -telemetry/-metrics: src/dst bucket count for per-flow latency attribution (0 disables flow accounting)")
		traceEvery  = flag.Int64("trace-every", 16, "with -telemetry: sample every Kth packet's lifecycle as trace records (0 disables tracing)")
		scenarioJS  = flag.String("scenario", "", `attach a scenario schedule to the -exp sweep points: a JSON ScenarioSpec array, e.g. '[{"kind":"storm","start":1000,"center":4,"radius":2,"recover":5000}]'`)
		metricsAt   = flag.String("metrics", "", "serve a Prometheus-text /metrics endpoint on this address (host:port) fed by the public-API sweeps; with -listen it also exports per-worker cluster liveness")
		cpuprof     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memprof     = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file on exit")
	)
	flag.Parse()

	var scenario []stringfigure.ScenarioSpec
	if *scenarioJS != "" {
		if err := json.Unmarshal([]byte(*scenarioJS), &scenario); err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: -scenario: %v\n", err)
			os.Exit(1)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			}
		}()
	}

	var ms *stringfigure.MetricsServer
	if *metricsAt != "" {
		var err error
		ms, err = stringfigure.ServeMetrics(*metricsAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("sfexp: serving metrics at http://%s/metrics\n", ms.Addr())
	}

	var tw *telemetryWriter
	if *telemetry != "" {
		var err error
		tw, err = newTelemetryWriter(*telemetry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := tw.close(); err != nil {
				fmt.Fprintf(os.Stderr, "sfexp: telemetry stream to %s failed: %v\n", *telemetry, err)
			}
		}()
	}

	// With -listen, the figure sweeps (8/10/11/12) shard their points over
	// remote sfworker processes; results are bit-identical to local runs,
	// so the cluster changes wall-clock time only.
	var cluster *stringfigure.Cluster
	if *listen != "" {
		var err error
		cluster, err = stringfigure.NewCluster(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfexp: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		experiments.UseCluster(cluster)
		if ms != nil {
			ms.WatchCluster(cluster)
		}
		if *workers > 0 {
			fmt.Printf("sfexp: coordinator on %s, waiting for %d workers...\n", cluster.Addr(), *workers)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			err := cluster.WaitForWorkers(ctx, *workers)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "sfexp: waiting for workers: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("sfexp: cluster ready: %d workers, %d slots\n", cluster.Workers(), cluster.Capacity())
		if tw != nil {
			// Surface per-worker liveness/throughput while sweeps drain.
			// Joined before tw closes so no tick can outlive the file.
			stopProgress := make(chan struct{})
			progressDone := make(chan struct{})
			go func() {
				defer close(progressDone)
				t := time.NewTicker(time.Second)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						tw.progress(cluster.Progress())
					case <-stopProgress:
						return
					}
				}
			}()
			defer func() {
				close(stopProgress)
				<-progressDone
			}()
		}
	}

	// One budget per mode: the session config every simulated experiment
	// shares, seeded from -seed, with the trace-driven figures' network
	// size and the saturation search's rate step beside it.
	traceN, step := 256, 0.05
	cfg := stringfigure.SessionConfig{Warmup: 1500, Measure: 4000,
		Ops: 2500, Sockets: 4, Window: 16, Threads: 4, MaxCycles: 40_000_000, Seed: *seed}
	fig5Seeds, fig5Sources := 5, 0
	fig9aSources := 0
	fig9bOps := 2000
	fig10Scales := experiments.Fig10Scales
	fig11N := 64
	if *quick {
		traceN, step = 32, 0.10
		cfg = stringfigure.SessionConfig{Warmup: 600, Measure: 1500,
			Ops: 1000, Sockets: 2, Window: 8, Threads: 1, MaxCycles: 10_000_000, Seed: *seed}
		fig5Seeds, fig5Sources = 2, 48
		fig9aSources = 48
		fig9bOps = 600
		fig10Scales = []int{16, 64}
		fig11N = 32
	}
	singleN := 64
	if *scale > 0 {
		fig10Scales = []int{*scale}
		fig11N = *scale
		singleN = *scale
	}

	// -exp all runs every figure id; run and topo run only by name.
	var ids []string
	ran := false
	run := func(name string, fn func() error) {
		ids = append(ids, name)
		if *exp != name && (*exp != "all" || name == "run" || name == "topo") {
			return
		}
		ran = true
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "sfexp %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %s --\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	print := func(series ...*stats.Series) {
		for _, s := range series {
			fmt.Println(s)
		}
	}

	run("fig5", func() error {
		s, err := experiments.Fig5(nil, fig5Seeds, fig5Sources)
		if err == nil {
			print(s)
		}
		return err
	})
	run("fig9a", func() error {
		s, err := experiments.Fig9a(nil, fig9aSources, *seed)
		if err == nil {
			print(s)
		}
		return err
	})
	run("table2", func() error {
		s, err := experiments.Table2(nil)
		if err != nil {
			return err
		}
		b, err := experiments.ConnectionBound(nil, *seed)
		if err != nil {
			return err
		}
		print(s, b)
		return nil
	})
	run("bisect", func() error {
		s, err := experiments.Bisection(nil, 10, *seed)
		if err == nil {
			print(s)
		}
		return err
	})
	run("fig10", func() error {
		series, err := experiments.Fig10(fig10Scales, nil, cfg, step)
		if err == nil {
			print(series...)
		}
		return err
	})
	run("fig11", func() error {
		series, err := experiments.Fig11(fig11N, nil, nil, cfg)
		if err == nil {
			print(series...)
		}
		return err
	})
	// fig12a and fig12b print the two tables of one Figure 12 computation,
	// so -exp all runs its trace sessions once.
	var fig12T, fig12E *stats.Series
	fig12 := func() (err error) {
		if fig12T == nil {
			fig12T, fig12E, err = experiments.Fig12(trace.WorkloadNames, traceN, cfg)
		}
		return err
	}
	run("fig12a", func() error {
		err := fig12()
		if err == nil {
			print(fig12T)
		}
		return err
	})
	run("fig12b", func() error {
		err := fig12()
		if err == nil {
			print(fig12E)
		}
		return err
	})
	run("fig9b", func() error {
		s, err := experiments.Fig9b(traceN, nil, nil, fig9bOps, *seed)
		if err == nil {
			print(s)
		}
		return err
	})
	run("placement", func() error {
		s, err := experiments.ProcessorPlacement(64, 0.1, cfg)
		if err != nil {
			return err
		}
		q, err := experiments.QuantizationStudy(256, nil, 600, *seed)
		if err != nil {
			return err
		}
		m, err := experiments.MetaCubeStudy(128, nil, 0.05, cfg)
		if err != nil {
			return err
		}
		print(s, q, m)
		return nil
	})
	run("sweep", func() error {
		// Figure 11 through the public front door: an injection-rate sweep
		// over the Workload/Session API, fanned across GOMAXPROCS — or
		// across the cluster's workers when -listen is up.
		n := fig11N
		opts := []stringfigure.Option{stringfigure.WithNodes(n), stringfigure.WithSeed(*seed)}
		pool := fmt.Sprintf("%d local workers", runtime.GOMAXPROCS(0))
		if cluster != nil {
			opts = append(opts, stringfigure.WithCluster(cluster))
			pool = fmt.Sprintf("%d remote workers", cluster.Workers())
		}
		net, err := stringfigure.New(opts...)
		if err != nil {
			return err
		}
		rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}
		cfg := cfg
		cfg.Scenario = scenario
		if tw != nil || ms != nil {
			// Several interval records per point, even at -quick budgets.
			cfg.TelemetryEvery = max((cfg.Warmup+cfg.Measure)/8, 1)
			cfg.FlowBuckets = *flowBuckets
		}
		if tw != nil {
			cfg.TraceSampleEvery = *traceEvery
			cfg = cfg.WithTelemetry(0, tw.interval)
		}
		if ms != nil {
			cfg = cfg.WithTelemetry(0, ms.Observe)
		}
		s := stats.NewSeries(
			fmt.Sprintf("Public-API rate sweep: sf N=%d uniform, %s", n, pool),
			"rate_pct", "lat_ns", "p90_ns", "thru_fpc", "net_nJ")
		var sweepErr error
		for res := range net.Sweep(cfg,
			stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: "uniform"}, rates), 0) {
			if res.Err != nil {
				if sweepErr == nil {
					sweepErr = res.Err
				}
				continue
			}
			s.AddRow(res.Rate*100, res.AvgLatencyNs, res.P90LatencyNs,
				res.ThroughputFPC, res.NetworkEnergyPJ/1e3)
		}
		if sweepErr != nil {
			return sweepErr
		}
		print(s)
		return nil
	})
	run("ablate", func() error {
		a, err := experiments.AblationUniBidi(nil, cfg, step)
		if err != nil {
			return err
		}
		b, err := experiments.AblationLookahead(nil, *seed)
		if err != nil {
			return err
		}
		c, err := experiments.AblationShortcuts(128, nil, *seed)
		if err != nil {
			return err
		}
		d, err := experiments.AblationAdaptiveThreshold(64, 0.3, nil, cfg)
		if err != nil {
			return err
		}
		print(a, b, c, d)
		return nil
	})
	run("run", func() error {
		cfg := cfg
		cfg.Rate = *rate
		return runSession(*designName, singleN, *patternName, cfg)
	})
	run("topo", func() error {
		return printTopology(*designName, singleN, *seed, *format)
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "sfexp: unknown experiment %q (want all, %s)\n", *exp, strings.Join(ids, ", "))
		os.Exit(1)
	}
}
