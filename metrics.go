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
// attach Observe to any session or sweep as a sink,
// `cfg.WithTelemetry(0, m.Observe)` (sinks compose, so it runs beside any
// other), or let a worker process feed it via WorkerOptions.Metrics. Cluster-side worker liveness is read
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
//	worker_active{worker=...}        per-worker dispatched, unanswered points
//	worker_capacity{worker=...}      per-worker concurrent-session slots
//	worker_completed{worker=...}     per-worker returned sweep points
//	worker_report_age_seconds{...}   seconds since the last dispatch or result
//
// Every _total family is a counter, interval_latency_ns a histogram and
// the rest are gauges. Counters aggregate across every run that feeds the
// server; scrape-side rate() turns them into live throughput. All methods
// are safe for concurrent use.
type MetricsServer struct {
	reg *metrics.Registry
	srv *metrics.Server

	// The snapshot fold, read by the registry's families at scrape: the
	// traffic counters (negative deltas ignored), the last interval's
	// in-flight level, and the interval-latency histogram as one count per
	// defaultLatencyBuckets bound, then the overflow, plus the raw sum.
	mu                                               sync.Mutex
	snapshots, injected, delivered, escaped, dropped int64
	inFlight                                         int64
	latency                                          [len(defaultLatencyBuckets) + 1]int64
	latencySum                                       float64

	// Flow-attribution series, populated only when snapshots carry flow
	// samples (SessionConfig.FlowBuckets > 0): per-flow deliveries and
	// per-link / per-router flits summed over intervals, and each flow's
	// latest interval latency. Keyed (src, dst) bucket pair, (from, to)
	// link or (node, 0); rendered as labeled samples in key order at scrape.
	flowDelivered, flowLatency map[[2]int]float64
	links, routers             map[[2]int]float64
}

// defaultLatencyBuckets are the interval-latency histogram bounds:
// doubling from 25 ns to 12.8 us, bracketing the paper's
// zero-load-to-saturation latency range.
var defaultLatencyBuckets = [...]int{25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800}

// ServeMetrics starts a Prometheus-text /metrics HTTP endpoint on addr
// ("host:port"; ":0" picks a free port, read it back with Addr). The
// returned server reports nothing until telemetry is routed into it —
// attach Observe to a session or sweep config with WithTelemetry, attach a
// cluster with WatchCluster, or hand it to a worker via
// WorkerOptions.Metrics. Close it when done.
func ServeMetrics(addr string) (*MetricsServer, error) {
	reg := metrics.NewRegistry()
	m := &MetricsServer{
		reg:           reg,
		flowDelivered: make(map[[2]int]float64),
		flowLatency:   make(map[[2]int]float64),
		links:         make(map[[2]int]float64),
		routers:       make(map[[2]int]float64),
	}
	scalar := func(name, help, typ string, v *int64) {
		m.family(name, help, typ, func() []metrics.Sample {
			return []metrics.Sample{{Name: name, Value: float64(*v)}}
		})
	}
	scalar("stringfigure_snapshots_total", "Interval telemetry snapshots observed.", "counter", &m.snapshots)
	scalar("stringfigure_injected_total", "Flits injected, summed over observed intervals.", "counter", &m.injected)
	scalar("stringfigure_delivered_total", "Flits delivered, summed over observed intervals.", "counter", &m.delivered)
	scalar("stringfigure_escaped_total", "Packets diverted to the escape subnetwork.", "counter", &m.escaped)
	scalar("stringfigure_dropped_total",
		"Packets dropped as unroutable during reconfiguration windows.", "counter", &m.dropped)
	scalar("stringfigure_in_flight", "Network flit occupancy at the last observed interval.", "gauge", &m.inFlight)
	m.family("stringfigure_interval_latency_ns",
		"Per-interval average packet latency in nanoseconds.", "histogram",
		func() []metrics.Sample {
			return metrics.Buckets("stringfigure_interval_latency_ns", defaultLatencyBuckets[:], m.latency[:], m.latencySum)
		})
	pair := func(a, b string) func([2]int) string {
		return func(k [2]int) string { return fmt.Sprintf(`{%s="%d",%s="%d"}`, a, k[0], b, k[1]) }
	}
	m.labeled("stringfigure_flow_delivered_total",
		"Packets delivered per (src bucket, dst bucket) flow, summed over intervals.", "counter",
		m.flowDelivered, pair("src", "dst"))
	m.labeled("stringfigure_flow_latency_ns",
		"Average packet latency per flow over the last observed interval.", "gauge",
		m.flowLatency, pair("src", "dst"))
	m.labeled("stringfigure_link_flits_total",
		"Flits forwarded per directed link, summed over intervals.", "counter",
		m.links, pair("from", "to"))
	m.labeled("stringfigure_router_flits_total",
		"Flits forwarded through each router's crossbar, summed over intervals.", "counter",
		m.routers, func(k [2]int) string { return fmt.Sprintf(`{node="%d"}`, k[0]) })
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

// Observe folds one interval snapshot into the exported counters. It is
// the server's telemetry sink: attach it with
// `cfg.WithTelemetry(0, m.Observe)`, or call it from a sink of your own.
// Safe for concurrent use.
func (m *MetricsServer) Observe(t TelemetrySnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapshots++
	m.injected += max(t.Injected, 0)
	m.delivered += max(t.Delivered, 0)
	m.escaped += max(t.Escaped, 0)
	m.dropped += max(t.Dropped, 0)
	m.inFlight = int64(t.InFlight)
	if t.Delivered > 0 {
		// The first bound at or above the latency (Prometheus' le rule); a
		// negative one counts in the first bucket.
		b := defaultLatencyBuckets[:]
		m.latency[sort.Search(len(b), func(i int) bool { return t.AvgLatencyNs <= float64(b[i]) })]++
		m.latencySum += t.AvgLatencyNs
	}
	for _, f := range t.Flows {
		k := [2]int{f.SrcBucket, f.DstBucket}
		m.flowDelivered[k] += float64(f.Delivered)
		m.flowLatency[k] = f.AvgLatencyNs
	}
	for _, l := range t.Links {
		m.links[[2]int{l.From, l.To}] += float64(l.Flits)
	}
	for _, r := range t.Routers {
		m.routers[[2]int{r.Node, 0}] += float64(r.Flits)
	}
}

// family registers one family whose samples are read under m.mu.
func (m *MetricsServer) family(name, help, typ string, fn func() []metrics.Sample) {
	m.reg.Register(name, help, typ, func() []metrics.Sample {
		m.mu.Lock()
		defer m.mu.Unlock()
		return fn()
	})
}

// labeled registers one labeled family over a series map: at scrape, every
// key renders as name+labels(key) in key order.
func (m *MetricsServer) labeled(name, help, typ string, series map[[2]int]float64, labels func([2]int) string) {
	m.family(name, help, typ, func() []metrics.Sample {
		keys := make([][2]int, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		out := make([]metrics.Sample, len(keys))
		for i, k := range keys {
			out[i] = metrics.Sample{Name: name + labels(k), Value: series[k]}
		}
		return out
	})
}

// WatchCluster exposes the cluster's per-worker liveness at scrape time:
// worker count, per-worker capacity, in-flight and completed points, and
// the age of each worker's last dispatch or result. The cluster is polled on
// every scrape (Cluster.Progress), so no goroutine runs between scrapes.
// Watching a second cluster replaces the first.
func (m *MetricsServer) WatchCluster(c *Cluster) {
	m.reg.Register("stringfigure_workers",
		"Connected distributed-sweep workers.", "gauge",
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
	m.reg.Register("stringfigure_worker_capacity",
		"Per-worker concurrent-session slots.", "gauge",
		perWorker("stringfigure_worker_capacity",
			func(p WorkerProgress) float64 { return float64(p.Capacity) }))
	m.reg.Register("stringfigure_worker_active",
		"Per-worker sweep points dispatched and not yet answered.", "gauge",
		perWorker("stringfigure_worker_active",
			func(p WorkerProgress) float64 { return float64(p.Active) }))
	m.reg.Register("stringfigure_worker_completed",
		"Per-worker sweep points returned since the worker connected.", "gauge",
		perWorker("stringfigure_worker_completed",
			func(p WorkerProgress) float64 { return float64(p.Completed) }))
	m.reg.Register("stringfigure_worker_report_age_seconds",
		"Seconds since each worker's last dispatch or result (-1 before the first).", "gauge",
		perWorker("stringfigure_worker_report_age_seconds",
			func(p WorkerProgress) float64 {
				if p.LastReport.IsZero() {
					return -1
				}
				return time.Since(p.LastReport).Seconds()
			}))
}
