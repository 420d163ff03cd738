// Command designcompare sweeps all six evaluated designs — dm, odm, fb,
// afb, s2 and sf — at one scale through the public API: the Figure 12-style
// cross-design comparison as a three-step user program per design (build,
// saturate, co-simulate).
package main

import (
	"flag"
	"fmt"
	"log"

	stringfigure "repro"
)

func main() {
	var (
		n        = flag.Int("n", 64, "memory nodes")
		seed     = flag.Int64("seed", 1, "topology seed")
		workload = flag.String("workload", "grep", "Table IV trace workload")
	)
	flag.Parse()

	fmt.Printf("design comparison at N=%d (seed %d)\n\n", *n, *seed)
	fmt.Printf("%-6s %8s %8s %10s %12s %10s %8s\n",
		"design", "routers", "ports", "sat_pct", "lat@5%_ns", "ipc", "net_nJ")
	for _, kind := range stringfigure.Designs() {
		net, err := stringfigure.New(
			stringfigure.WithDesign(kind),
			stringfigure.WithNodes(*n),
			stringfigure.WithSeed(*seed))
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}

		// Saturation rate via the parallel bracketing search (Figure 10).
		sat, err := net.Saturation(
			stringfigure.SyntheticWorkload{Pattern: "uniform"},
			stringfigure.SessionConfig{Warmup: 600, Measure: 1500, Seed: *seed}, 0.1)
		if err != nil {
			log.Fatalf("%s saturation: %v", kind, err)
		}

		// Latency at a light fixed load (Figure 11's left edge).
		light, err := net.NewSession(stringfigure.SessionConfig{
			Rate: 0.05, Warmup: 600, Measure: 1500, Seed: *seed,
		}).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			log.Fatalf("%s latency: %v", kind, err)
		}

		// Closed-loop trace co-simulation (Figure 12's metric).
		traced, err := net.NewSession(stringfigure.SessionConfig{
			Ops: 600, Sockets: 2, Window: 8, Seed: *seed,
		}).Run(stringfigure.TraceWorkload{Workload: *workload})
		if err != nil {
			log.Fatalf("%s trace: %v", kind, err)
		}

		fmt.Printf("%-6s %8d %8d %10.1f %12.1f %10.3f %8.1f\n",
			kind, net.Routers(), net.Ports(), sat*100,
			light.AvgLatencyNs, traced.IPC, traced.NetworkEnergyPJ/1e3)
	}
	fmt.Println("\nsat_pct: saturation injection rate under uniform traffic (Figure 10)")
	fmt.Printf("ipc: per-socket IPC on the %q trace workload (Figure 12)\n", *workload)
}
