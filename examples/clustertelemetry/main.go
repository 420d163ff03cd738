// Clustertelemetry: watch a distributed sweep live, from one process.
//
// The program stands up a loopback cluster (coordinator plus two embedded
// workers — the same wire protocol a multi-machine deployment speaks),
// starts a Prometheus-text /metrics endpoint wired to the cluster, and
// runs a telemetry-enabled rate sweep on the cluster-attached network.
// Remote workers batch their interval snapshots into wire frames; the
// coordinator demultiplexes them by point index and merges them with any
// locally-run points into the one sink attached with WithTelemetry —
// which here both prints per-point progress and feeds the /metrics
// counters. At the end the program scrapes its own endpoint and prints a
// few exposition lines, exactly what `curl host:port/metrics` shows
// against `sfexp -listen ... -metrics ...`.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	stringfigure "repro"
)

func main() {
	const nodes = 64

	// Coordinator plus two embedded workers over loopback. Real
	// deployments run `sfworker -connect` on other machines instead; the
	// protocol and the results are identical.
	cluster, err := stringfigure.NewCluster("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go stringfigure.ServeWorker(ctx, cluster.Addr(), stringfigure.WorkerOptions{Parallel: 2})
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	err = cluster.WaitForWorkers(wctx, 2)
	wcancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster up: %d workers, %d slots\n", cluster.Workers(), cluster.Capacity())

	// A /metrics endpoint that also reports the cluster's worker liveness.
	metrics, err := stringfigure.ServeMetrics("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer metrics.Close()
	metrics.WatchCluster(cluster)
	fmt.Printf("metrics at http://%s/metrics\n\n", metrics.Addr())

	net, err := stringfigure.New(stringfigure.WithNodes(nodes),
		stringfigure.WithSeed(7), stringfigure.WithCluster(cluster))
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry-enabled distributed sweep: the sink sees every point's
	// interval snapshots — forwarded over the wire for remote points —
	// and a second WithTelemetry sink feeds the same stream into the
	// /metrics counters.
	var mu sync.Mutex
	intervals := make(map[int]int)
	sink := func(t stringfigure.TelemetrySnapshot) {
		mu.Lock()
		intervals[t.Point]++
		mu.Unlock()
	}
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	points := stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: "uniform"}, rates)
	cfg := stringfigure.SessionConfig{Warmup: 2000, Measure: 18000, Seed: 1}.
		WithTelemetry(1000, sink).
		WithTelemetry(0, metrics.Observe)

	fmt.Printf("%5s  %9s  %9s  %9s  %s\n", "rate", "lat_ns", "p90_ns", "thru_fpc", "snapshots")
	for res := range net.Sweep(cfg, points, 0) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		mu.Lock()
		var point int
		for i, r := range rates {
			if r == res.Rate {
				point = i
			}
		}
		n := intervals[point]
		mu.Unlock()
		fmt.Printf("%5.2f  %9.1f  %9.1f  %9.3f  %d forwarded\n",
			res.Rate, res.AvgLatencyNs, res.P90LatencyNs, res.ThroughputFPC, n)
	}

	// Scrape our own endpoint — the same page Prometheus would pull.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metrics.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscraped /metrics (excerpt):")
	var lines []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "stringfigure_") &&
			(strings.Contains(line, "_total") || strings.HasPrefix(line, "stringfigure_workers")) {
			lines = append(lines, "  "+line)
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}
