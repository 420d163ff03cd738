package stringfigure_test

// Metrics-endpoint tests: ServeMetrics exposes the telemetry stream as a
// Prometheus text page — counters fed by interval snapshots (local or
// forwarded from cluster workers), a cumulative interval-latency
// histogram, and per-worker liveness read off the cluster at scrape time.
// The scrape test parses the exposition text line by line; the golden
// test pins the whole page byte for byte.

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	. "repro"
	"repro/internal/golden"
)

// scrape fetches and returns the exposition page of a metrics server.
func scrape(t *testing.T, m *MetricsServer) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", m.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseExposition validates the Prometheus text format line by line and
// returns the samples as name (including any label block) -> value.
func parseExposition(t *testing.T, page string) map[string]float64 {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (-?[0-9.eE+]+|[-+]Inf|NaN)$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !comment.MatchString(line) {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		out[m[1]] = v
	}
	return out
}

// TestMetricsEndpointScrape runs a telemetry-enabled session into a
// metrics server and checks the scraped exposition: valid text format,
// live counters, and a coherent latency histogram (monotone cumulative
// buckets whose +Inf count equals the _count series).
func TestMetricsEndpointScrape(t *testing.T) {
	m, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	net := mustNew(t, WithNodes(32), WithSeed(11))
	cfg := SessionConfig{Rate: 0.1, Warmup: 500, Measure: 2000, Seed: 1}.WithTelemetry(250, m.Observe)
	if _, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"}); err != nil {
		t.Fatal(err)
	}

	samples := parseExposition(t, scrape(t, m))
	for _, name := range []string{
		"stringfigure_snapshots_total",
		"stringfigure_injected_total",
		"stringfigure_delivered_total",
	} {
		if samples[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, samples[name])
		}
	}
	// Histogram coherence: buckets are cumulative and end at _count.
	count := samples["stringfigure_interval_latency_ns_count"]
	if count <= 0 {
		t.Fatalf("latency histogram empty: count = %v", count)
	}
	if inf := samples[`stringfigure_interval_latency_ns_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("+Inf bucket = %v, want _count %v", inf, count)
	}
	prev := 0.0
	for _, le := range []string{"25", "50", "100", "200", "400", "800", "1600", "3200", "6400", "12800", "+Inf"} {
		key := fmt.Sprintf(`stringfigure_interval_latency_ns_bucket{le=%q}`, le)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s = %v below previous %v (not cumulative)", key, v, prev)
		}
		prev = v
	}
	if sum := samples["stringfigure_interval_latency_ns_sum"]; sum <= 0 {
		t.Errorf("latency histogram sum = %v, want > 0", sum)
	}
}

// TestMetricsExpositionGolden pins the whole /metrics page byte for byte,
// in testdata/golden_metrics_page.txt (rewrite it only on purpose, with
// `go test . -run TestMetricsExpositionGolden -update`):
// every family's HELP and TYPE lines, registration order, sample order and
// number formatting. A fixed snapshot sequence feeds Observe — a latency
// past the top bucket, one on a bound, a fractional one, an interval with
// no deliveries, a negative delta and flow/link/router samples — and the
// server watches a cluster with no workers and an empty job service.
func TestMetricsExpositionGolden(t *testing.T) {
	m, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m.WatchCluster(c)
	svc, err := NewService(ServiceConfig{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	m.WatchService(svc)

	for _, s := range []TelemetrySnapshot{
		{Injected: 100, Delivered: 90, AvgLatencyNs: 37.25, Escaped: 2, Dropped: 1, InFlight: 12,
			Flows: []FlowSample{{SrcBucket: 1, DstBucket: 0, Delivered: 50, AvgLatencyNs: 44},
				{SrcBucket: 0, DstBucket: 1, Delivered: 40, AvgLatencyNs: 30.5}},
			Links:   []LinkSample{{From: 2, To: 3, Flits: 5}, {From: 0, To: 1, Flits: 7}},
			Routers: []RouterSample{{Node: 3, Flits: 4}, {Node: 0, Flits: 9}}},
		{Injected: 5, InFlight: 3}, // no deliveries: no latency observation
		{Injected: 10, Delivered: 8, AvgLatencyNs: 20000.5, InFlight: 7,
			Flows:   []FlowSample{{SrcBucket: 0, DstBucket: 1, Delivered: 8, AvgLatencyNs: 19999}},
			Links:   []LinkSample{{From: 0, To: 1, Flits: 2}},
			Routers: []RouterSample{{Node: 0, Flits: 2}}},
		{Injected: -3, Delivered: 4, AvgLatencyNs: 25, Escaped: -1, InFlight: 0},
		{Delivered: 1, AvgLatencyNs: 25.9, InFlight: 1},
	} {
		m.Observe(s)
	}

	golden.Text(t, "testdata/golden_metrics_page.txt", scrape(t, m))
}

// TestMetricsLabeledFamilies pins the labeled flow/link/router families:
// a FlowBuckets run into a metrics server exposes each family, its samples
// sorted by label, and the per-label values equal what the feeding sink
// sums beside Observe (flows, links, routers) or last saw (flow latency).
func TestMetricsLabeledFamilies(t *testing.T) {
	m, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	net := mustNew(t, WithNodes(32), WithSeed(11))
	want := map[string]float64{}
	cfg := SessionConfig{Rate: 0.1, Warmup: 500, Measure: 2000, Seed: 1, FlowBuckets: 4}
	cfg = cfg.WithTelemetry(250, func(s TelemetrySnapshot) {
		m.Observe(s)
		for _, f := range s.Flows {
			want[fmt.Sprintf(`stringfigure_flow_delivered_total{src="%d",dst="%d"}`, f.SrcBucket, f.DstBucket)] += float64(f.Delivered)
			want[fmt.Sprintf(`stringfigure_flow_latency_ns{src="%d",dst="%d"}`, f.SrcBucket, f.DstBucket)] = f.AvgLatencyNs
		}
		for _, l := range s.Links {
			want[fmt.Sprintf(`stringfigure_link_flits_total{from="%d",to="%d"}`, l.From, l.To)] += float64(l.Flits)
		}
		for _, r := range s.Routers {
			want[fmt.Sprintf(`stringfigure_router_flits_total{node="%d"}`, r.Node)] += float64(r.Flits)
		}
	})
	if _, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"}); err != nil {
		t.Fatal(err)
	}

	page := scrape(t, m)
	samples := parseExposition(t, page)
	label := regexp.MustCompile(`^([a-z_]+)\{(.*)\} `)
	num := regexp.MustCompile(`"(\d+)"`)
	last := map[string][]int{} // family -> previous sample's label values
	seen := map[string]int{}
	for _, line := range strings.Split(page, "\n") {
		g := label.FindStringSubmatch(line)
		if g == nil || strings.HasPrefix(g[1], "stringfigure_interval_latency") {
			continue
		}
		var key []int
		for _, n := range num.FindAllStringSubmatch(g[2], -1) {
			v, _ := strconv.Atoi(n[1])
			key = append(key, v)
		}
		if prev, ok := last[g[1]]; ok && !lessInts(prev, key) {
			t.Errorf("%s: label %v not after %v", g[1], key, prev)
		}
		last[g[1]] = key
		seen[g[1]]++
	}
	for _, fam := range []string{"stringfigure_flow_delivered_total", "stringfigure_flow_latency_ns",
		"stringfigure_link_flits_total", "stringfigure_router_flits_total"} {
		if seen[fam] == 0 {
			t.Errorf("family %s missing", fam)
		}
	}
	if seen["stringfigure_flow_delivered_total"] > 16 {
		t.Errorf("%d flow samples from 4 buckets", seen["stringfigure_flow_delivered_total"])
	}
	for name, v := range want {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), sink says %v", name, got, ok, v)
		}
	}
	for name := range samples {
		if strings.Contains(name, "{") && !strings.HasPrefix(name, "stringfigure_interval_latency") {
			if _, ok := want[name]; !ok {
				t.Errorf("%s exposed but never observed by the sink", name)
			}
		}
	}
}

// lessInts orders label tuples lexicographically.
func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// TestClusterMetricsExportWorkers scrapes a cluster-watching endpoint
// during a distributed sweep epilogue: worker liveness gauges appear with
// per-worker labels, and the forwarded telemetry of remote points lands
// in the same counters a local run feeds.
func TestClusterMetricsExportWorkers(t *testing.T) {
	c := startCluster(t, 2, 2)
	m, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.WatchCluster(c)

	net := mustNew(t, WithNodes(32), WithSeed(8), WithCluster(c))
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.05, 0.1, 0.15})
	cfg := SessionConfig{Warmup: 400, Measure: 1600, Seed: 1}.WithTelemetry(200, m.Observe)
	for _, r := range net.SweepAll(cfg, points, 0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	// The coordinator counts each result before delivering it, so the
	// completion counters are exact as soon as the sweep returns.
	samples := parseExposition(t, scrape(t, m))
	var completed float64
	for name, v := range samples {
		if strings.HasPrefix(name, "stringfigure_worker_completed{") {
			completed += v
		}
	}
	if samples["stringfigure_workers"] != 2 || completed != float64(len(points)) {
		t.Fatalf("worker gauges after the sweep: workers=%v completed=%v",
			samples["stringfigure_workers"], completed)
	}
	for name, v := range samples {
		if strings.HasPrefix(name, "stringfigure_worker_capacity{") && v != 2 {
			t.Errorf("%s = %v, want 2", name, v)
		}
	}
	// Remote snapshots were forwarded and observed: the traffic counters
	// moved even though every point ran on a worker process.
	if samples["stringfigure_delivered_total"] <= 0 {
		t.Error("no forwarded telemetry reached the metrics counters")
	}
}
