// Trafficsweep: characterize a String Figure network under every Table III
// synthetic traffic pattern, sweeping the injection rate up to saturation —
// a miniature of the paper's Figure 10/11 methodology. The whole
// pattern x rate grid fans out across GOMAXPROCS workers through the public
// Sweep API; per-point seeds are deterministic, so the table is identical
// at any parallelism.
package main

import (
	"fmt"
	"log"

	stringfigure "repro"
)

func main() {
	const n = 64
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-node String Figure network, %d ports/router\n\n", n, net.Ports())

	patterns := stringfigure.Patterns()
	rates := []float64{0.05, 0.15, 0.30, 0.50}

	// One sweep point per (pattern, rate); Sweep streams results back in
	// point order while the grid runs in parallel.
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
}
