package stringfigure_test

// Runnable documentation: each Example shows one part of the public API
// the way a user program would drive it, and `go test` runs it and
// compares what it prints against its Output block, so an example that
// drifts from the API or from the simulator's numbers fails the suite.

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	stringfigure "repro"
)

// Build a String Figure memory network, inspect its topology, route
// packets, and run a short traffic simulation through the public
// Workload/Session API.
func Example() {
	// A 64-node network with the paper's defaults (4-port routers at this
	// scale, two virtual coordinate spaces, shortcuts provisioned).
	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d router ports, %d virtual spaces\n",
		net.Nodes(), net.Ports(), net.Spaces())

	// Every node has virtual coordinates in each space; greedy routing
	// descends the minimum circular distance (MD) to the destination.
	fmt.Printf("node 7 coordinates: space0=%.3f space1=%.3f\n",
		net.Coordinate(0, 7), net.Coordinate(1, 7))
	fmt.Printf("node 7 out-links: %v\n", net.OutNeighbors(7))

	path, err := net.Route(7, 48)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy route 7 -> 48: %v (%d hops)\n", path, len(path)-1)
	fmt.Printf("MD(7,48) = %.4f\n", net.MD(7, 48))

	// Topology quality: near-optimal path lengths at random-graph scale.
	st := net.PathLengths(0)
	fmt.Printf("all-pairs shortest paths: mean %.2f, p10 %d, p90 %d, diameter %d\n",
		st.Mean, st.P10, st.P90, st.Diameter)

	// A Session owns one simulation run: config snapshot, seed, warm-up and
	// measurement windows. Here: uniform random traffic at 10% injection.
	sess := net.NewSession(stringfigure.SessionConfig{
		Rate: 0.10, Warmup: 1000, Measure: 4000, Seed: 1,
	})
	res, err := sess.Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform traffic @10%%: %d packets, mean latency %.1f ns, %.2f hops avg, %.1f nJ network\n",
		res.Delivered, res.AvgLatencyNs, res.AvgHops, res.NetworkEnergyPJ/1e3)

	// Any destination function plugs in as a workload — no registration.
	ring := stringfigure.FuncWorkload{
		Label: "ring-neighbor",
		Dest: func(src int, rng *rand.Rand) (int, bool) {
			return (src + 1) % 64, true
		},
	}
	res, err = sess.Run(ring)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom %s workload: %d packets, mean latency %.1f ns\n",
		ring.Label, res.Delivered, res.AvgLatencyNs)
	// Output:
	// network: 64 nodes, 4 router ports, 2 virtual spaces
	// node 7 coordinates: space0=0.832 space1=0.979
	// node 7 out-links: [5 18 46 57]
	// greedy route 7 -> 48: [7 57 61 1 0 2 48] (6 hops)
	// MD(7,48) = 0.1052
	// all-pairs shortest paths: mean 3.11, p10 2, p90 4, diameter 5
	// uniform traffic @10%: 25424 packets, mean latency 26.8 ns, 3.59 hops avg, 43813.9 nJ network
	// custom ring-neighbor workload: 25817 packets, mean latency 26.3 ns
}

// Characterize a String Figure network under every Table III synthetic
// traffic pattern, sweeping the injection rate up to saturation — a
// miniature of the paper's Figure 10/11 methodology. The whole
// pattern x rate grid fans out across GOMAXPROCS workers; per-point seeds
// are deterministic, so the table is identical at any parallelism.
func ExampleNetwork_SweepAll() {
	const n = 64
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-node String Figure network, %d ports/router\n\n", n, net.Ports())

	patterns := stringfigure.Patterns()
	rates := []float64{0.05, 0.15, 0.30, 0.50}

	// One sweep point per (pattern, rate); the results come back in point
	// order while the grid runs in parallel.
	var points []stringfigure.Point
	for _, p := range patterns {
		points = append(points,
			stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: p}, rates)...)
	}
	cfg := stringfigure.SessionConfig{Warmup: 800, Measure: 2500, Seed: 1}
	results := net.SweepAll(cfg, points, 0)

	fmt.Printf("%-12s", "pattern")
	for _, r := range rates {
		fmt.Printf("  @%3.0f%% lat(ns)", r*100)
	}
	fmt.Println()
	for i, p := range patterns {
		fmt.Printf("%-12s", p)
		for j := range rates {
			res := results[i*len(rates)+j]
			if res.Err != nil {
				log.Fatal(res.Err)
			}
			if res.Deadlocked || res.Delivered == 0 ||
				float64(res.Delivered) < 0.7*float64(res.Injected) {
				fmt.Printf("  %12s", "saturated")
				continue
			}
			fmt.Printf("  %12.1f", res.AvgLatencyNs)
		}
		fmt.Println()
	}

	fmt.Println()
	sat, err := net.Saturation(stringfigure.SyntheticWorkload{Pattern: "uniform"},
		stringfigure.SessionConfig{Seed: 4}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform-traffic saturation point: %.0f%% injection rate (single-flit packets)\n", sat*100)
	// Output:
	// 64-node String Figure network, 4 ports/router
	//
	// pattern       @  5% lat(ns)  @ 15% lat(ns)  @ 30% lat(ns)  @ 50% lat(ns)
	// uniform               27.8          28.9          31.1     saturated
	// tornado               30.7          31.8         121.7         852.6
	// hotspot          saturated     saturated     saturated     saturated
	// opposite              23.7          24.4          78.0         489.8
	// neighbor              28.1          28.8          34.1         754.0
	// complement            23.8          24.4          78.0         483.2
	// partition2            27.7          28.5          30.8     saturated
	//
	// uniform-traffic saturation point: 40% injection rate (single-flit packets)
}

// Run the full closed-loop memory-system co-simulation — the Figure 12
// pipeline: synthesize Table IV traces through the cache hierarchy,
// attach four CPU sockets to a String Figure network of DRAM-timed memory
// nodes, and report IPC, read latency and the network/DRAM energy split.
// All eight workloads fan out in parallel through Sweep.
func ExampleTraceWorkload() {
	const n = 64
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	cfg := stringfigure.SessionConfig{
		Ops:       3000,
		Sockets:   4,
		Window:    16,
		Threads:   4, // multi-threaded sockets: memory-bound replay
		MaxCycles: 30_000_000,
		Seed:      11,
	}
	fmt.Printf("memory system: %d nodes x 8 GB, %d CPU sockets, window %d reads/socket\n\n",
		n, cfg.Sockets, cfg.Window)

	var points []stringfigure.Point
	for _, wl := range stringfigure.TraceWorkloads() {
		points = append(points, stringfigure.Point{
			Workload: stringfigure.TraceWorkload{Workload: wl},
		})
	}

	fmt.Printf("%-11s %10s %10s %10s %12s %12s %12s\n",
		"workload", "IPC", "read ns", "pkt ns", "net uJ", "dram uJ", "DRAM ops")
	for res := range net.Sweep(cfg, points, 0) {
		if res.Err != nil {
			log.Fatalf("%s: %v", res.Workload, res.Err)
		}
		fmt.Printf("%-11s %10.3f %10.1f %10.1f %12.2f %12.2f %12d\n",
			res.Workload, res.IPC, res.AvgReadLatencyNs, res.AvgLatencyNs,
			res.NetworkEnergyPJ/1e6, res.DRAMEnergyPJ/1e6, res.DRAMAccesses)
	}

	// Elasticity under real workloads: gate a quarter of the nodes off and
	// rerun — replay only targets alive nodes, so the run still completes.
	for v := 0; v < n; v += 4 {
		if err := net.GateOff(v); err != nil {
			log.Fatal(err)
		}
	}
	sess := net.NewSession(cfg)
	res, err := sess.Run(stringfigure.TraceWorkload{Workload: "redis"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nredis with %d/%d nodes gated off: IPC %.3f, read latency %.1f ns, energy %.2f uJ\n",
		n-net.AliveCount(), n, res.IPC, res.AvgReadLatencyNs, res.TotalEnergyPJ/1e6)
	// Output:
	// memory system: 64 nodes x 8 GB, 4 CPU sockets, window 16 reads/socket
	//
	// workload           IPC    read ns     pkt ns       net uJ      dram uJ     DRAM ops
	// wordcount        0.245      288.8      130.1       133.37        73.73        12000
	// grep             0.196      298.3      145.1       140.37        73.73        12000
	// sort             0.222      276.9      120.1       126.21        73.73        12000
	// pagerank         0.419      282.8      140.4       146.33        73.73        12000
	// redis            3.032      261.0      117.4       137.26        73.73        12000
	// memcached        5.126      183.5       78.7       133.06        73.73        12000
	// kmeans           0.108      298.4      148.4       143.64        73.73        12000
	// matmul           0.655      259.4      126.8       141.71        73.73        12000
	//
	// redis with 16/64 nodes gated off: IPC 2.965, read latency 258.9 ns, energy 189.83 uJ
}

// The elastic network scale of Section III-C: dynamically gate a growing
// fraction of memory nodes off for power management, verify the network
// stays fully routable through shortcut healing, then bring the nodes
// back and statically down-mount the design (design-reuse path).
func ExampleNetwork_GateOff() {
	const n = 128
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %d-node String Figure network (%d ports/router)\n\n", n, net.Ports())

	// --- Dynamic power gating -------------------------------------------
	rng := rand.New(rand.NewSource(1))
	var gated []int
	for len(gated) < n/4 {
		v := rng.Intn(n)
		if !net.Alive(v) {
			continue
		}
		if err := net.GateOff(v); err != nil {
			log.Fatal(err)
		}
		gated = append(gated, v)
	}
	st := net.PathLengths(48)
	rs := net.ReconfigStats()
	fmt.Printf("gated %d nodes off (%d reconfigurations)\n", len(gated), rs.Reconfigs)
	fmt.Printf("  links disabled/enabled: %d/%d\n", rs.LinksDisabled, rs.LinksEnabled)
	fmt.Printf("  ring healing: %d via pre-provisioned shortcuts, %d via topology switch\n",
		rs.HealedByShortcut, rs.HealedBySwitch)
	fmt.Printf("  alive network: %d nodes, mean path %.2f, diameter %d\n\n",
		net.AliveCount(), st.Mean, st.Diameter)

	// Routing still works between every pair of alive nodes.
	checked := 0
	for src := 0; src < n && checked < 500; src++ {
		if !net.Alive(src) {
			continue
		}
		for dst := n - 1; dst >= 0 && checked < 500; dst-- {
			if src == dst || !net.Alive(dst) {
				continue
			}
			if _, err := net.Route(src, dst); err != nil {
				log.Fatalf("route %d->%d failed after gating: %v", src, dst, err)
			}
			checked++
		}
	}
	fmt.Printf("verified %d routes on the gated network\n", checked)

	// Traffic still flows on the reduced network.
	res, err := net.NewSession(stringfigure.SessionConfig{Rate: 0.05, Warmup: 800, Measure: 2500, Seed: 8}).
		Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic @5%% on 3/4 of the network: %d packets, %.1f ns mean latency\n\n",
		res.Delivered, res.AvgLatencyNs)

	// --- Wake everything back up ----------------------------------------
	for _, v := range gated {
		if err := net.GateOn(v); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("all %d nodes back online\n\n", net.AliveCount())

	// --- Static reduction (design reuse) --------------------------------
	// Fabricate once, deploy with only 96 of 128 nodes mounted.
	mounted := make([]bool, n)
	for i := 0; i < 96; i++ {
		mounted[i] = true
	}
	if err := net.SetMounted(mounted); err != nil {
		log.Fatal(err)
	}
	st = net.PathLengths(48)
	fmt.Printf("static deployment with %d/%d nodes mounted: mean path %.2f, diameter %d\n",
		net.AliveCount(), n, st.Mean, st.Diameter)
	// Output:
	// deployed 128-node String Figure network (4 ports/router)
	//
	// gated 32 nodes off (32 reconfigurations)
	//   links disabled/enabled: 252/126
	//   ring healing: 38 via pre-provisioned shortcuts, 88 via topology switch
	//   alive network: 96 nodes, mean path 3.49, diameter 6
	//
	// verified 500 routes on the gated network
	// traffic @5% on 3/4 of the network: 9019 packets, 31.1 ns mean latency
	//
	// all 128 nodes back online
	//
	// static deployment with 96/128 nodes mounted: mean path 3.56, diameter 6
}

// Compare all six evaluated designs — dm, odm, fb, afb, s2 and sf — at one
// scale: the Figure 12-style cross-design comparison as a three-step
// program per design (build, saturate, co-simulate).
func ExampleDesigns() {
	const (
		n        = 64
		seed     = 1
		workload = "grep" // Table IV trace workload
	)
	fmt.Printf("design comparison at N=%d (seed %d)\n\n", n, seed)
	fmt.Printf("%-6s %8s %8s %10s %12s %10s %8s\n",
		"design", "routers", "ports", "sat_pct", "lat@5%_ns", "ipc", "net_nJ")
	for _, kind := range stringfigure.Designs() {
		net, err := stringfigure.New(
			stringfigure.WithDesign(kind),
			stringfigure.WithNodes(n),
			stringfigure.WithSeed(seed))
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}

		// Saturation rate via the parallel bracketing search (Figure 10).
		sat, err := net.Saturation(
			stringfigure.SyntheticWorkload{Pattern: "uniform"},
			stringfigure.SessionConfig{Warmup: 600, Measure: 1500, Seed: seed}, 0.1)
		if err != nil {
			log.Fatalf("%s saturation: %v", kind, err)
		}

		// Latency at a light fixed load (Figure 11's left edge).
		light, err := net.NewSession(stringfigure.SessionConfig{
			Rate: 0.05, Warmup: 600, Measure: 1500, Seed: seed,
		}).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			log.Fatalf("%s latency: %v", kind, err)
		}

		// Closed-loop trace co-simulation (Figure 12's metric).
		traced, err := net.NewSession(stringfigure.SessionConfig{
			Ops: 600, Sockets: 2, Window: 8, Seed: seed,
		}).Run(stringfigure.TraceWorkload{Workload: workload})
		if err != nil {
			log.Fatalf("%s trace: %v", kind, err)
		}

		fmt.Printf("%-6s %8d %8d %10.1f %12.1f %10.3f %8.1f\n",
			kind, net.Routers(), net.Ports(), sat*100,
			light.AvgLatencyNs, traced.IPC, traced.NetworkEnergyPJ/1e3)
	}
	fmt.Println("\nsat_pct: saturation injection rate under uniform traffic (Figure 10)")
	fmt.Printf("ipc: per-socket IPC on the %q trace workload (Figure 12)\n", workload)
	// Output:
	// design comparison at N=64 (seed 1)
	//
	// design  routers    ports    sat_pct    lat@5%_ns        ipc   net_nJ
	// dm           64        4       40.0         37.9      0.072  19690.6
	// odm          64       28       90.0         37.6      0.148  59071.7
	// fb          121       20      100.0         14.6      0.086  15322.7
	// afb         121       12      100.0         17.3      0.078  12837.6
	// s2           64        4       50.0         27.3      0.087  12316.8
	// sf           64        4       50.0         27.3      0.087  12316.8
	//
	// sat_pct: saturation injection rate under uniform traffic (Figure 10)
	// ipc: per-socket IPC on the "grep" trace workload (Figure 12)
}

// Run a sweep on a cluster: a coordinator, workers, a cluster-attached
// network and a /metrics endpoint. The points run on the workers (here
// two embedded ones over loopback; in production, cmd/sfworker processes
// on other machines) with the coordinator's per-point seeds, so the
// Results are bit-identical to the same sweep on a network built without
// WithCluster, and each point's telemetry is forwarded to the sinks.
func ExampleNewCluster() {
	// ":0" picks a free port; a deployment listens on a routable address
	// and runs `sfworker -connect coord:port` on each machine.
	cluster, err := stringfigure.NewCluster("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer workers.Wait()
	defer cancel()
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			err := stringfigure.ServeWorker(ctx, cluster.Addr(), stringfigure.WorkerOptions{Parallel: 2})
			if err != nil && ctx.Err() == nil {
				log.Print(err)
			}
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := cluster.WaitForWorkers(wctx, 2); err != nil {
		log.Fatal(err)
	}

	// A Prometheus-text endpoint fed by the sweep's telemetry, which also
	// reports the cluster's worker liveness.
	metrics, err := stringfigure.ServeMetrics("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer metrics.Close()
	metrics.WatchCluster(cluster)

	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(42),
		stringfigure.WithCluster(cluster))
	if err != nil {
		log.Fatal(err)
	}
	cfg := stringfigure.SessionConfig{Warmup: 500, Measure: 2000, Seed: 7}.
		WithTelemetry(1000, metrics.Observe)
	points := stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.05, 0.10, 0.15, 0.20})
	for _, r := range net.SweepAll(cfg, points, 0) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("rate %.2f: %.1f ns\n", r.Rate, r.AvgLatencyNs)
	}
}
