// Flowheatmap: attribute a reconfiguration transient to the flows that
// actually feel it. A gate schedule powers a quadrant of the network off
// mid-run; per-flow telemetry (SessionConfig.FlowBuckets) buckets every
// delivery by its (source, destination) node group, so aggregating the
// interval flow deltas around the gate event yields src/dst latency
// heatmaps of its blast radius. Two phases tell the story:
//
//   - Transient (the first ~30 us after gate-off): packets already in
//     flight to or from the dark quadrant straggle out through escape
//     routes with order-of-magnitude latency spikes, while flows between
//     live groups pay only the healed shortcuts' 5 us wake charge.
//   - Settled (the rest of the gated window): flows touching the dark
//     groups are extinguished outright — no sources, no sinks — and the
//     surviving flows' latency returns to baseline (the healed topology
//     carries them within noise of the healthy network).
//
// That is the paper's elasticity argument, resolved per flow instead of
// as one network-wide average; examples/livetelemetry shows the same
// event time-resolved.
package main

import (
	"fmt"
	"log"
	"strings"

	stringfigure "repro"
)

const (
	n       = 64
	buckets = 8 // 8 node groups of 8 — the gated quadrant is groups 2 and 3
	gateOff = 6000
	gateOn  = 38000 // one 100 us reconfiguration interval after gate-off
	// settle splits the gated window: the first settle cycles after
	// gate-off are the transient (healed shortcut links charging their
	// 5 us wake latency ≈ 1563 cycles, displaced traffic draining), the
	// rest is the gated steady state.
	settle = 10000
)

// phase accumulates one src/dst-group grid of delivery-weighted latency.
type phase [buckets][buckets]struct {
	latNs float64
	count int64
}

func (p *phase) add(f stringfigure.FlowSample) {
	c := &p[f.SrcBucket][f.DstBucket]
	c.latNs += f.AvgLatencyNs * float64(f.Delivered)
	c.count += f.Delivered
}

// mean returns the phase's delivery-weighted average latency for one flow
// and whether the flow delivered at all.
func (p *phase) mean(src, dst int) (float64, bool) {
	c := p[src][dst]
	if c.count == 0 {
		return 0, false
	}
	return c.latNs / float64(c.count), true
}

// gatedGroup reports whether a node group lies in the gated quadrant.
func gatedGroup(g int) bool { return g == 2 || g == 3 }

func main() {
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// Gate nodes 16..31 (groups 2 and 3) off at gateOff, back on at gateOn.
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
		FlowBuckets:    buckets,
	}

	fmt.Printf("%d-node String Figure, uniform traffic at rate %.2f, %dx%d flow groups\n",
		n, cfg.Rate, buckets, buckets)
	fmt.Printf("gating nodes 16..31 (groups 2-3) off at cycle %d, on at %d\n\n", gateOff, gateOn)

	var before, transient, settled phase
	cfg = cfg.WithTelemetry(0, func(s stringfigure.TelemetrySnapshot) {
		var ph *phase
		switch {
		case s.Cycle <= gateOff:
			ph = &before
		case s.Cycle <= gateOff+settle:
			ph = &transient
		case s.Cycle <= gateOn:
			ph = &settled
		default:
			return // recovery after gate-on: livetelemetry's territory
		}
		for _, f := range s.Flows {
			ph.add(f)
		}
	})
	res, err := net.NewSession(cfg).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		log.Fatal(err)
	}

	heatmap("transient (first ~30us after gate-off), latency delta vs healthy baseline:",
		&before, &transient)
	heatmap("settled gated phase, latency delta vs healthy baseline:",
		&before, &settled)

	// The attribution headline: average each phase's delta over flows with
	// an endpoint in the gated groups versus flows between live groups.
	for _, w := range []struct {
		name string
		ph   *phase
	}{{"transient", &transient}, {"settled", &settled}} {
		var crossSum, avoidSum float64
		var crossN, avoidN, starved int
		for src := 0; src < buckets; src++ {
			for dst := 0; dst < buckets; dst++ {
				base, ok := before.mean(src, dst)
				if !ok {
					continue
				}
				cur, alive := w.ph.mean(src, dst)
				crossing := gatedGroup(src) || gatedGroup(dst)
				if !alive {
					if crossing {
						starved++
					}
					continue
				}
				if crossing {
					crossSum += cur - base
					crossN++
				} else {
					avoidSum += cur - base
					avoidN++
				}
			}
		}
		fmt.Printf("%-10s", w.name+":")
		if crossN > 0 {
			fmt.Printf("  flows touching the gated groups %+8.1f ns (%d flows, %d starved)",
				crossSum/float64(crossN), crossN, starved)
		} else {
			fmt.Printf("  flows touching the gated groups starved (%d flows, 0 delivering)", starved)
		}
		if avoidN > 0 {
			fmt.Printf("  |  flows between live groups %+6.1f ns (%d flows)", avoidSum/float64(avoidN), avoidN)
		}
		fmt.Println()
	}
	fmt.Printf("\nfinal: %d delivered / %d injected, avg %.1f ns, deadlocked=%v, %d/%d nodes alive\n",
		res.Delivered, res.Injected, res.AvgLatencyNs, res.Deadlocked, net.AliveCount(), n)
}

// heatmap prints one phase's latency delta against the baseline: a signed
// delta per flow cell with a log-scale bar (one # per factor of two above
// 75 ns), or x for a flow with no deliveries in the phase (starved by the
// gate — its endpoints are dark).
func heatmap(title string, base, ph *phase) {
	fmt.Println(title)
	fmt.Printf("%8s", "")
	for d := 0; d < buckets; d++ {
		fmt.Printf("  dst%-8d", d)
	}
	fmt.Println()
	for src := 0; src < buckets; src++ {
		fmt.Printf("  src%-3d", src)
		for dst := 0; dst < buckets; dst++ {
			b, okB := base.mean(src, dst)
			cur, okC := ph.mean(src, dst)
			if !okB || !okC {
				fmt.Printf("  %-11s", "x")
				continue
			}
			delta := cur - b
			bar := 0
			for x := delta; x > 75 && bar < 6; x /= 2 {
				bar++
			}
			fmt.Printf("  %+-7.0f%-4s", delta, strings.Repeat("#", bar))
		}
		fmt.Println()
	}
	fmt.Println()
}
