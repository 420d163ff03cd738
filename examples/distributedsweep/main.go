// Example distributedsweep demonstrates cluster-scale sweep execution on
// one machine: it starts a coordinator (stringfigure.NewCluster), embeds
// two workers over loopback TCP (stringfigure.ServeWorker — in production
// these are cmd/sfworker processes on other machines), fans a rate sweep
// across them by attaching the cluster to the network, and then proves
// the determinism contract by re-running the same sweep on a network
// built without the cluster and comparing every Result field bit for bit.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"time"

	stringfigure "repro"
)

func main() {
	// 1. Coordinator. ":0" picks a free port; real deployments listen on
	// a routable address and start cmd/sfworker on each machine:
	//
	//	sfexp -exp fig10 -listen 0.0.0.0:9911 -workers 8   (coordinator)
	//	sfworker -connect coord:9911                       (each worker)
	cluster, err := stringfigure.NewCluster("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("coordinator listening on %s\n", cluster.Addr())

	// 2. Two embedded workers. Each rebuilds the swept network locally
	// from its serialized design spec and runs points with the
	// coordinator's exact per-point seeds.
	ctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	for i := 0; i < 2; i++ {
		go func(id int) {
			err := stringfigure.ServeWorker(ctx, cluster.Addr(), stringfigure.WorkerOptions{
				Parallel:  2,
				DialRetry: 5 * time.Second,
			})
			if err != nil && ctx.Err() == nil {
				log.Printf("worker %d: %v", id, err)
			}
		}(i)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = cluster.WaitForWorkers(wctx, 2)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d workers connected (%d slots)\n", cluster.Workers(), cluster.Capacity())

	// 3. A distributed rate sweep (the Figure 11 shape). WithCluster
	// attaches the cluster, and the network's Sweep shards the points
	// over it.
	net, err := stringfigure.New(
		stringfigure.WithNodes(64),
		stringfigure.WithSeed(42),
		stringfigure.WithCluster(cluster),
	)
	if err != nil {
		log.Fatal(err)
	}
	cfg := stringfigure.SessionConfig{Warmup: 500, Measure: 2000, Seed: 7}
	points := stringfigure.RateSweep(
		stringfigure.SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30})

	fmt.Println("\nrate%   lat_ns   p90_ns   thru_fpc")
	distributed := net.SweepAll(cfg, points, 0)
	for _, r := range distributed {
		if r.Err != nil {
			log.Fatalf("rate %.2f: %v", r.Rate, r.Err)
		}
		fmt.Printf("%5.0f %8.1f %8.1f %10.4f\n",
			r.Rate*100, r.AvgLatencyNs, r.P90LatencyNs, r.ThroughputFPC)
	}

	// 4. Determinism: the same network built without the cluster runs the
	// sweep on the in-process pool and must produce bit-identical Results
	// — distribution changes wall-clock time, never numbers.
	bare, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	local := bare.SweepAll(cfg, points, 0)
	for i := range local {
		if !reflect.DeepEqual(local[i], distributed[i]) {
			log.Fatalf("point %d differs between local and distributed runs:\n%+v\n%+v",
				i, local[i], distributed[i])
		}
	}
	fmt.Println("\ndistributed results are bit-identical to the in-process pool ✓")

	// A saturation search fans its candidate waves the same way.
	sat, err := net.Saturation(
		stringfigure.SyntheticWorkload{Pattern: "uniform"},
		stringfigure.SessionConfig{Warmup: 500, Measure: 1500, Seed: 7}, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed saturation search: %.0f%% injection rate\n", sat*100)
}
