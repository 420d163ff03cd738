package main

import (
	"fmt"
	"os"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/energy"
)

// runSession runs one synthetic session of cfg (cfg.Rate is the injection
// rate) on the named design with n memory nodes and prints its latency,
// throughput and energy. Every design runs through the public Session API,
// so all six share the simulator, routing normalization and energy
// accounting. A scale at which no figure evaluates the design still runs,
// with a note on stderr.
func runSession(designName string, n int, pattern string, cfg stringfigure.SessionConfig) error {
	net, err := stringfigure.New(
		stringfigure.WithDesign(designName),
		stringfigure.WithNodes(n),
		stringfigure.WithSeed(cfg.Seed))
	if err != nil {
		return err
	}
	if kind := net.Design(); !design.Supports(kind, n) {
		from := "no paper scale"
		for _, s := range design.PaperScales {
			if design.Supports(kind, s) {
				from = fmt.Sprintf("N=%d", s)
				break
			}
		}
		fmt.Fprintf(os.Stderr, "sfexp: note: N=%d is off the paper's axis for %s; the figures evaluate it from %s\n",
			n, kind, from)
	}
	res, err := net.NewSession(cfg).Run(stringfigure.SyntheticWorkload{Pattern: pattern})
	if err != nil {
		return err
	}

	delivered := 0.0
	if res.Injected > 0 {
		delivered = 100 * float64(res.Delivered) / float64(res.Injected)
	}
	fmt.Printf("design=%s N=%d routers=%d ports=%d pattern=%s rate=%.2f\n",
		net.Design(), net.Nodes(), net.Routers(), net.Ports(), pattern, cfg.Rate)
	fmt.Printf("injected:   %d packets\n", res.Injected)
	fmt.Printf("delivered:  %d packets (%.1f%%)\n", res.Delivered, delivered)
	fmt.Printf("latency:    mean %.1f ns, p90 %.1f ns\n", res.AvgLatencyNs, res.P90LatencyNs)
	fmt.Printf("hops:       mean %.2f\n", res.AvgHops)
	fmt.Printf("throughput: %.4f flits/node/cycle\n", res.ThroughputFPC)
	fmt.Printf("energy:     %.1f nJ network dynamic (%.2f pJ/bit-hop at radix %d)\n",
		res.NetworkEnergyPJ/1e3, energy.PJPerBitHopForRadix(net.Ports()), net.Ports())
	fmt.Printf("escapes:    %d, drops: %d, deadlocked: %v\n", res.Escaped, res.Dropped, res.Deadlocked)
	return nil
}
