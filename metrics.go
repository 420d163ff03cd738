package stringfigure

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// MetricsServer exposes live simulation telemetry as a Prometheus-text
// /metrics endpoint, with no external dependencies. It is fed from the
// same TelemetrySnapshot stream the rest of the telemetry layer uses:
// attach it to any session or sweep with SessionConfig.WithMetrics (it
// composes with an existing WithTelemetry sink), or let a worker process
// feed it via WorkerOptions.Metrics. Cluster-side worker liveness is read
// at scrape time from an attached Cluster (WatchCluster), so the endpoint
// also answers "is the fleet alive" during a long distributed sweep.
//
// Exposed families (all prefixed stringfigure_):
//
//	snapshots_total                  interval snapshots observed
//	injected_total, delivered_total  flits, summed over intervals
//	escaped_total, dropped_total     escape diversions / unroutable drops
//	in_flight                        network flit occupancy (last interval)
//	interval_latency_ns              histogram of per-interval avg latency
//	flow_delivered_total{src,dst}    per-flow-bucket deliveries (FlowBuckets runs)
//	flow_latency_ns{src,dst}         per-flow-bucket avg latency, last interval
//	link_flits_total{from,to}        per-link flits forwarded (heatmap source)
//	router_flits_total{node}         per-router crossbar flits forwarded
//	workers                          connected cluster workers
//	worker_active{worker=...}        per-worker in-flight sweep points
//	worker_capacity{worker=...}      per-worker concurrent-session slots
//	worker_completed{worker=...}     per-worker finished sweep points
//	worker_report_age_seconds{...}   seconds since the worker last reported
//
// Counters aggregate across every run that feeds the server; scrape-side
// rate() turns them into live throughput. All methods are safe for
// concurrent use.
type MetricsServer struct {
	reg *metrics.Registry
	srv *metrics.Server

	snapshots *metrics.Counter
	injected  *metrics.Counter
	delivered *metrics.Counter
	escaped   *metrics.Counter
	dropped   *metrics.Counter
	inFlight  *metrics.Gauge
	latency   *metrics.Histogram

	// Flow-attribution series, populated only when snapshots carry flow
	// samples (SessionConfig.FlowBuckets > 0). Cumulative counters keyed by
	// bucket pair / link / router; rendered as labeled samples at scrape.
	mu      sync.Mutex
	flows   map[[2]int]*flowStat
	links   map[[2]int]int64
	routers map[int]int64
}

// flowStat is one flow bucket pair's exported state: cumulative deliveries
// plus the latest interval's average latency.
type flowStat struct {
	delivered int64
	latencyNs float64
}

// defaultLatencyBuckets are the interval-latency histogram bounds:
// doubling from 25 ns to 12.8 us, bracketing the paper's
// zero-load-to-saturation latency range.
var defaultLatencyBuckets = []int{25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800}

// ServeMetrics starts a Prometheus-text /metrics HTTP endpoint on addr
// ("host:port"; ":0" picks a free port, read it back with Addr). The
// returned server reports nothing until telemetry is routed into it —
// chain it into a session or sweep config with SessionConfig.WithMetrics,
// attach a cluster with WatchCluster, or hand it to a worker via
// WorkerOptions.Metrics. Close it when done.
func ServeMetrics(addr string) (*MetricsServer, error) {
	reg := metrics.NewRegistry()
	m := &MetricsServer{
		reg: reg,
		snapshots: reg.Counter("stringfigure_snapshots_total",
			"Interval telemetry snapshots observed."),
		injected: reg.Counter("stringfigure_injected_total",
			"Flits injected, summed over observed intervals."),
		delivered: reg.Counter("stringfigure_delivered_total",
			"Flits delivered, summed over observed intervals."),
		escaped: reg.Counter("stringfigure_escaped_total",
			"Packets diverted to the escape subnetwork."),
		dropped: reg.Counter("stringfigure_dropped_total",
			"Packets dropped as unroutable during reconfiguration windows."),
		inFlight: reg.Gauge("stringfigure_in_flight",
			"Network flit occupancy at the last observed interval."),
		latency: reg.Histogram("stringfigure_interval_latency_ns",
			"Per-interval average packet latency in nanoseconds.",
			defaultLatencyBuckets),
		flows:   make(map[[2]int]*flowStat),
		links:   make(map[[2]int]int64),
		routers: make(map[int]int64),
	}
	reg.GaugeFunc("stringfigure_flow_delivered_total",
		"Packets delivered per (src bucket, dst bucket) flow, summed over intervals.",
		func() []metrics.Sample {
			return m.flowSamples(func(fs *flowStat) float64 { return float64(fs.delivered) },
				"stringfigure_flow_delivered_total")
		})
	reg.GaugeFunc("stringfigure_flow_latency_ns",
		"Average packet latency per flow over the last observed interval.",
		func() []metrics.Sample {
			return m.flowSamples(func(fs *flowStat) float64 { return fs.latencyNs },
				"stringfigure_flow_latency_ns")
		})
	reg.GaugeFunc("stringfigure_link_flits_total",
		"Flits forwarded per directed link, summed over intervals.",
		m.linkSamples)
	reg.GaugeFunc("stringfigure_router_flits_total",
		"Flits forwarded through each router's crossbar, summed over intervals.",
		m.routerSamples)
	srv, err := metrics.Serve(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("stringfigure: metrics listen: %w", err)
	}
	m.srv = srv
	return m, nil
}

// Addr returns the endpoint's listen address (scrape http://ADDR/metrics).
func (m *MetricsServer) Addr() string { return m.srv.Addr() }

// Close stops the HTTP endpoint. Telemetry sinks still pointing at the
// server keep updating its registry harmlessly.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// Observe folds one interval snapshot into the exported counters. It is a
// valid WithTelemetry sink (safe for concurrent use) and is what
// SessionConfig.WithMetrics chains in; call it directly when managing
// sinks by hand.
func (m *MetricsServer) Observe(t TelemetrySnapshot) {
	m.snapshots.Add(1)
	m.injected.Add(float64(t.Injected))
	m.delivered.Add(float64(t.Delivered))
	m.escaped.Add(float64(t.Escaped))
	m.dropped.Add(float64(t.Dropped))
	m.inFlight.Set(float64(t.InFlight))
	if t.Delivered > 0 {
		m.latency.Observe(t.AvgLatencyNs)
	}
	if len(t.Flows) == 0 && len(t.Links) == 0 && len(t.Routers) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range t.Flows {
		k := [2]int{f.SrcBucket, f.DstBucket}
		fs := m.flows[k]
		if fs == nil {
			fs = &flowStat{}
			m.flows[k] = fs
		}
		fs.delivered += f.Delivered
		fs.latencyNs = f.AvgLatencyNs
	}
	for _, l := range t.Links {
		m.links[[2]int{l.From, l.To}] += l.Flits
	}
	for _, r := range t.Routers {
		m.routers[r.Node] += r.Flits
	}
}

// flowSamples renders the flow map as labeled samples in bucket order.
func (m *MetricsServer) flowSamples(v func(*flowStat) float64, name string) []metrics.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([][2]int, 0, len(m.flows))
	for k := range m.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]metrics.Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, metrics.Sample{
			Name:  fmt.Sprintf("%s{src=\"%d\",dst=\"%d\"}", name, k[0], k[1]),
			Value: v(m.flows[k]),
		})
	}
	return out
}

// linkSamples renders the link utilization map in (from, to) order.
func (m *MetricsServer) linkSamples() []metrics.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([][2]int, 0, len(m.links))
	for k := range m.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]metrics.Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, metrics.Sample{
			Name:  fmt.Sprintf("stringfigure_link_flits_total{from=\"%d\",to=\"%d\"}", k[0], k[1]),
			Value: float64(m.links[k]),
		})
	}
	return out
}

// routerSamples renders the router utilization map in node order.
func (m *MetricsServer) routerSamples() []metrics.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]int, 0, len(m.routers))
	for k := range m.routers {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]metrics.Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, metrics.Sample{
			Name:  fmt.Sprintf("stringfigure_router_flits_total{node=\"%d\"}", k),
			Value: float64(m.routers[k]),
		})
	}
	return out
}

// WatchCluster exposes the cluster's per-worker liveness at scrape time:
// worker count, per-worker capacity, in-flight and completed points, and
// the age of each worker's last progress report. The cluster is polled on
// every scrape (Cluster.Progress), so no goroutine runs between scrapes.
// Watching a second cluster replaces the first.
func (m *MetricsServer) WatchCluster(c *Cluster) {
	m.reg.GaugeFunc("stringfigure_workers",
		"Connected distributed-sweep workers.",
		func() []metrics.Sample {
			return []metrics.Sample{{Name: "stringfigure_workers", Value: float64(c.Workers())}}
		})
	perWorker := func(name string, v func(WorkerProgress) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			ps := c.Progress()
			out := make([]metrics.Sample, 0, len(ps))
			for _, p := range ps {
				out = append(out, metrics.Sample{
					Name:  fmt.Sprintf("%s{worker=\"%d\"}", name, p.Worker),
					Value: v(p),
				})
			}
			return out
		}
	}
	m.reg.GaugeFunc("stringfigure_worker_capacity",
		"Per-worker concurrent-session slots.",
		perWorker("stringfigure_worker_capacity",
			func(p WorkerProgress) float64 { return float64(p.Capacity) }))
	m.reg.GaugeFunc("stringfigure_worker_active",
		"Per-worker sweep points running right now.",
		perWorker("stringfigure_worker_active",
			func(p WorkerProgress) float64 { return float64(p.Active) }))
	m.reg.GaugeFunc("stringfigure_worker_completed",
		"Per-worker sweep points finished since the worker connected.",
		perWorker("stringfigure_worker_completed",
			func(p WorkerProgress) float64 { return float64(p.Completed) }))
	m.reg.GaugeFunc("stringfigure_worker_report_age_seconds",
		"Seconds since each worker's last progress report (-1 before the first).",
		perWorker("stringfigure_worker_report_age_seconds",
			func(p WorkerProgress) float64 {
				if p.LastReport.IsZero() {
					return -1
				}
				return time.Since(p.LastReport).Seconds()
			}))
}

// WithMetrics returns a copy of the config that additionally feeds every
// interval snapshot into the metrics server, preserving any sink already
// attached with WithTelemetry (the existing sink runs first). Snapshot
// cadence follows TelemetryEvery exactly as for any other sink, and
// attaching metrics never perturbs simulation results.
func (c SessionConfig) WithMetrics(m *MetricsServer) SessionConfig {
	prev := c.onTelemetry
	c.onTelemetry = func(t TelemetrySnapshot) {
		if prev != nil {
			prev(t)
		}
		m.Observe(t)
	}
	return c
}
