// Livetelemetry: watch a reconfiguration transient as it happens. A gate
// schedule powers a quadrant of the network off mid-run and back on later;
// a WithTelemetry sink prints interval snapshots as the live simulation
// emits them, showing the latency spike while the healed shortcut links
// wake up (the paper's 5 us link wake latency, Section VI), the settled
// gated steady state, the second spike at power-on, and the recovery —
// the time-resolved version of the paper's elasticity story.
package main

import (
	"fmt"
	"log"
	"strings"

	stringfigure "repro"
)

func main() {
	const (
		n       = 64
		gateOff = 6000  // cycle the quadrant powers down
		gateOn  = 38000 // cycle it powers back up — a full 100 us minimum
		// reconfiguration interval (31250 cycles at 3.2 ns) after the
		// gate-off epoch; anything closer would be deferred to this cycle
		// anyway (see stringfigure.GateEvent).
	)
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// Schedule: gate nodes 16..31 off at gateOff, back on at gateOn. The
	// session applies the events inside the run and restores the starting
	// mask on exit.
	var gates []stringfigure.GateEvent
	for v := 16; v < 32; v++ {
		gates = append(gates, stringfigure.GateEvent{Cycle: gateOff, Node: v, On: false})
	}
	for v := 16; v < 32; v++ {
		gates = append(gates, stringfigure.GateEvent{Cycle: gateOn, Node: v, On: true})
	}
	cfg := stringfigure.SessionConfig{
		Rate:           0.1,
		Warmup:         1000,
		Measure:        45000,
		Seed:           3,
		TelemetryEvery: 1000,
		Scenario:       []stringfigure.ScenarioSpec{stringfigure.ChurnTrace(gates...)},
	}

	fmt.Printf("%d-node String Figure, uniform traffic at rate %.2f\n", n, cfg.Rate)
	fmt.Printf("gating nodes 16..31 off at cycle %d, on at cycle %d\n\n", gateOff, gateOn)
	fmt.Printf("%7s  %9s  %9s  %6s  %5s  %5s  %8s  latency\n",
		"cycle", "avg_ns", "p90_ns", "deliv", "esc", "drop", "inflight")

	// The sink runs on the simulating goroutine as each interval closes.
	cfg = cfg.WithTelemetry(0, func(s stringfigure.TelemetrySnapshot) {
		// A log-ish bar so the spike-and-recovery shape is visible in a
		// terminal: one # per factor-of-two above the 20 ns baseline.
		bars := 0
		for x := s.P90LatencyNs; x > 20 && bars < 12; x /= 2 {
			bars++
		}
		mark := ""
		switch s.Cycle {
		case gateOff + 1000:
			mark = "  <- GateOff (healed shortcuts waking)"
		case gateOn + 1000:
			mark = "  <- GateOn commanded (rejoins after the 5us link wake)"
		}
		fmt.Printf("%7d  %9.1f  %9.1f  %6d  %5d  %5d  %8d  %s%s\n",
			s.Cycle, s.AvgLatencyNs, s.P90LatencyNs, s.Delivered,
			s.Escaped, s.Dropped, s.InFlight, strings.Repeat("#", bars), mark)
	})
	res, err := net.NewSession(cfg).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal: %d delivered / %d injected, avg %.1f ns, %d escapes, deadlocked=%v\n",
		res.Delivered, res.Injected, res.AvgLatencyNs, res.Escaped, res.Deadlocked)
	fmt.Printf("network restored: %d/%d nodes alive\n", net.AliveCount(), n)
}
