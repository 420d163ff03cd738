// Failurestorm: the scenario engine's headline demo. One declarative
// ScenarioSpec — FailureStorm(start, center, radius, recover) — compiles
// into the full gate schedule a correlated regional failure needs: every
// node within circular id-distance radius of center gates off at start
// and back on recover cycles later, under the paper's Section VI epoch
// rules (one reconfiguration epoch per event group, gate-ons deferred
// past the link wake latency). The session stamps each applied action
// onto the telemetry stream as ScenarioEvent records, so this program
// never hardcodes the storm region: it learns which nodes went dark from
// the stream itself.
//
// Per-flow telemetry (SessionConfig.FlowBuckets) then resolves the
// elasticity argument: during the storm, flows touching the dark groups
// starve or straggle out through escape routes with large latency
// spikes, while flows between live groups keep delivering on the healed
// shortcuts for a bounded congestion penalty — and snap back to baseline
// within noise once the region recovers. The network keeps serving
// everyone the storm didn't take out. examples/flowheatmap shows the
// same split as full src/dst heatmaps for a hand-written gate list.
package main

import (
	"fmt"
	"log"
	"sort"

	stringfigure "repro"
)

const (
	n       = 64
	buckets = 8 // 8 node groups of 8
	stormAt = 6000
	// recoverAfter is one 100 us reconfiguration interval (31250 cycles)
	// rounded up: the earliest the epoch rules let the region power back on.
	recoverAfter = 32000
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

func main() {
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	cfg := stringfigure.SessionConfig{
		Rate:           0.1,
		Warmup:         1000,
		Measure:        45000,
		Seed:           3,
		TelemetryEvery: 1000,
		FlowBuckets:    buckets,
		Scenario: []stringfigure.ScenarioSpec{
			stringfigure.FailureStorm(stormAt, 24, 7, recoverAfter),
		},
	}

	fmt.Printf("%d-node String Figure, uniform traffic at rate %.2f, %dx%d flow groups\n",
		n, cfg.Rate, buckets, buckets)
	fmt.Printf("failure storm: radius-7 region around node 24 gates off at cycle %d, recovers after %d cycles\n\n",
		stormAt, recoverAfter)

	// The storm region and its recovery cycle come from the stream's
	// ScenarioEvent records, not from re-deriving the schedule here.
	var before, storm, recovered phase
	darkNow := map[int]bool{}
	everDark := map[int]bool{}
	var applied []stringfigure.ScenarioEvent
	cfg = cfg.WithTelemetry(0, func(s stringfigure.TelemetrySnapshot) {
		for _, ev := range s.Scenario {
			applied = append(applied, ev)
			switch ev.Kind {
			case "gate-off":
				darkNow[ev.Node] = true
				everDark[ev.Node] = true
			case "gate-on":
				delete(darkNow, ev.Node)
			}
		}
		var ph *phase
		switch {
		case s.Cycle <= stormAt:
			ph = &before
		case len(darkNow) > 0:
			ph = &storm
		default:
			ph = &recovered
		}
		for _, f := range s.Flows {
			ph.add(f)
		}
	})
	res, err := net.NewSession(cfg).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		log.Fatal(err)
	}

	region := make([]int, 0, len(everDark))
	for v := range everDark {
		region = append(region, v)
	}
	sort.Ints(region)
	fmt.Printf("scenario applied %d events; storm region (from the event stream): %v\n",
		len(applied), region)
	fmt.Printf("first gate-off at cycle %d, first gate-on at cycle %d (epoch-deferred past the wake latency)\n\n",
		eventCycle(applied, "gate-off"), eventCycle(applied, "gate-on"))

	stormGroup := make([]bool, buckets)
	for v := range everDark {
		stormGroup[v/(n/buckets)] = true
	}

	for _, w := range []struct {
		name string
		ph   *phase
	}{{"storm window", &storm}, {"recovered", &recovered}} {
		var crossSum, liveSum float64
		var crossN, liveN, starved int
		for src := 0; src < buckets; src++ {
			for dst := 0; dst < buckets; dst++ {
				base, ok := before.mean(src, dst)
				if !ok {
					continue
				}
				cur, alive := w.ph.mean(src, dst)
				crossing := stormGroup[src] || stormGroup[dst]
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
					liveSum += cur - base
					liveN++
				}
			}
		}
		fmt.Printf("%-14s", w.name+":")
		if crossN > 0 {
			fmt.Printf("  flows touching the storm groups %+8.1f ns (%d flows, %d starved)",
				crossSum/float64(crossN), crossN, starved)
		} else {
			fmt.Printf("  flows touching the storm groups starved (%d flows, 0 delivering)", starved)
		}
		if liveN > 0 {
			fmt.Printf("  |  flows between live groups %+6.1f ns (%d flows)", liveSum/float64(liveN), liveN)
		}
		fmt.Println()
	}
	fmt.Printf("\nfinal: %d delivered / %d injected, avg %.1f ns, deadlocked=%v, %d/%d nodes alive\n",
		res.Delivered, res.Injected, res.AvgLatencyNs, res.Deadlocked, net.AliveCount(), n)
}

// eventCycle returns the cycle of the first applied event of the kind, or
// -1 if the schedule never produced one.
func eventCycle(events []stringfigure.ScenarioEvent, kind string) int64 {
	for _, ev := range events {
		if ev.Kind == kind {
			return ev.Cycle
		}
	}
	return -1
}
