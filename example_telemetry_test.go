package stringfigure_test

import (
	"fmt"
	"log"
	"sort"
	"strings"

	stringfigure "repro"
)

// Watch a reconfiguration transient as it happens. A gate schedule powers
// a quadrant of the network off mid-run and back on later; a
// WithTelemetry sink prints interval snapshots as the live simulation
// emits them, showing the latency spike while the healed shortcut links
// wake up (the paper's 5 us link wake latency, Section VI), the settled
// gated steady state, the second spike at power-on, and the recovery —
// the time-resolved version of the paper's elasticity story.
func ExampleSessionConfig_WithTelemetry() {
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
	// session applies the events inside the run, to its own copy of the
	// network's reconfiguration state, so the network keeps its mask.
	cfg := stringfigure.SessionConfig{
		Rate:           0.1,
		Warmup:         1000,
		Measure:        45000,
		Seed:           3,
		TelemetryEvery: 1000,
		Scenario:       []stringfigure.ScenarioSpec{quadrantGate(gateOff, gateOn)},
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
	// Output:
	// 64-node String Figure, uniform traffic at rate 0.10
	// gating nodes 16..31 off at cycle 6000, on at cycle 38000
	//
	//   cycle     avg_ns     p90_ns   deliv    esc   drop  inflight  latency
	//    1000       26.7       41.6    6154      0      0        38  ##
	//    2000       26.8       41.6    6279      0      0        50  ##
	//    3000       26.9       41.6    6278      0      0        47  ##
	//    4000       26.8       41.6    6109      0      0        47  ##
	//    5000       27.0       41.6    6217      0      0        56  ##
	//    6000       26.9       41.6    6193      0      0        53  ##
	//    7000       74.3      220.8    1030    563      5      2501  ####  <- GateOff (healed shortcuts waking)
	//    8000     2568.6     4678.4    3663    415      5      2365  ########
	//    9000     1360.9     4096.0    5860    257      0        23  ########
	//   10000       24.3       35.2    3484      0      0        30  #
	//   11000       24.5       35.2    3600      0      0        20  #
	//   12000       24.4       35.2    3410      0      0        26  #
	//   13000       24.4       35.2    3528      0      0        18  #
	//   14000       24.1       35.2    3446      0      0        24  #
	//   15000       24.4       35.2    3565      0      0        22  #
	//   16000       24.3       35.2    3561      0      0        17  #
	//   17000       24.4       35.2    3587      0      0        21  #
	//   18000       24.4       35.2    3581      0      0        22  #
	//   19000       24.2       35.2    3531      0      0        22  #
	//   20000       24.3       35.2    3503      0      0        16  #
	//   21000       24.3       35.2    3484      0      0        31  #
	//   22000       24.1       35.2    3565      0      0        23  #
	//   23000       24.1       35.2    3568      0      0        25  #
	//   24000       24.1       35.2    3533      0      0        21  #
	//   25000       24.1       35.2    3485      0      0        20  #
	//   26000       24.0       35.2    3437      0      0        18  #
	//   27000       24.1       35.2    3520      0      0        27  #
	//   28000       24.0       35.2    3500      0      0        21  #
	//   29000       24.3       35.2    3513      0      0        21  #
	//   30000       24.1       35.2    3525      0      0        30  #
	//   31000       24.3       35.2    3395      0      0        19  #
	//   32000       24.4       35.2    3518      0      0        32  #
	//   33000       24.1       35.2    3515      0      0        25  #
	//   34000       23.9       35.2    3541      0      0        23  #
	//   35000       24.3       35.2    3571      0      0        29  #
	//   36000       24.3       35.2    3516      0      0        30  #
	//   37000       24.2       35.2    3549      0      0        18  #
	//   38000       23.9       35.2    3627      0      0        24  #
	//   39000       23.8       35.2    3531      0      0        15  #  <- GateOn commanded (rejoins after the 5us link wake)
	//   40000       25.7       38.4    4740      0      0        48  #
	//   41000       26.8       41.6    6239      0      0        39  ##
	//   42000       26.7       41.6    6310      0      0        49  ##
	//   43000       26.9       41.6    6360      0      0        48  ##
	//   44000       26.9       41.6    6360      0      0        49  ##
	//   45000       26.8       41.6    6258      0      0        48  ##
	//   46000       26.9       41.6    6321      0      0        56  ##
	//
	// final: 189906 delivered / 189934 injected, avg 115.8 ns, 1235 escapes, deadlocked=false
	// network restored: 64/64 nodes alive
}

// quadrantGate is the churn schedule of the gating examples: nodes 16..31
// (flow groups 2 and 3 of 8 on a 64-node network) gate off at cycle off
// and back on at cycle on.
func quadrantGate(off, on int64) stringfigure.ScenarioSpec {
	var gates []stringfigure.GateEvent
	for v := 16; v < 32; v++ {
		gates = append(gates, stringfigure.GateEvent{Cycle: off, Node: v, On: false})
	}
	for v := 16; v < 32; v++ {
		gates = append(gates, stringfigure.GateEvent{Cycle: on, Node: v, On: true})
	}
	return stringfigure.ChurnTrace(gates...)
}

// flowGroups is the flow-bucket count of the per-flow examples: 8 node
// groups of 8 on a 64-node network.
const flowGroups = 8

// flowPhase accumulates one src/dst-group grid of delivery-weighted
// latency over a phase of a run.
type flowPhase [flowGroups][flowGroups]struct {
	latNs float64
	count int64
}

func (p *flowPhase) add(f stringfigure.FlowSample) {
	c := &p[f.SrcBucket][f.DstBucket]
	c.latNs += f.AvgLatencyNs * float64(f.Delivered)
	c.count += f.Delivered
}

// mean returns the phase's delivery-weighted average latency for one flow
// and whether the flow delivered at all.
func (p *flowPhase) mean(src, dst int) (float64, bool) {
	c := p[src][dst]
	if c.count == 0 {
		return 0, false
	}
	return c.latNs / float64(c.count), true
}

// printFlowSplit finishes one line with a phase's latency delta against
// before, averaged over flows with an endpoint in a dark group versus flows
// between live groups; a dark-group flow that did not deliver at all in
// the phase counts as starved.
func printFlowSplit(label string, before, ph *flowPhase, dark func(group int) bool) {
	var crossSum, liveSum float64
	var crossN, liveN, starved int
	for src := 0; src < flowGroups; src++ {
		for dst := 0; dst < flowGroups; dst++ {
			base, ok := before.mean(src, dst)
			if !ok {
				continue
			}
			cur, alive := ph.mean(src, dst)
			crossing := dark(src) || dark(dst)
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
	if crossN > 0 {
		fmt.Printf("  flows touching the %s groups %+8.1f ns (%d flows, %d starved)",
			label, crossSum/float64(crossN), crossN, starved)
	} else {
		fmt.Printf("  flows touching the %s groups starved (%d flows, 0 delivering)", label, starved)
	}
	if liveN > 0 {
		fmt.Printf("  |  flows between live groups %+6.1f ns (%d flows)", liveSum/float64(liveN), liveN)
	}
	fmt.Println()
}

// Attribute a reconfiguration transient to the flows that actually feel
// it. A gate schedule powers a quadrant of the network off mid-run;
// per-flow telemetry (SessionConfig.FlowBuckets) buckets every delivery
// by its (source, destination) node group, so aggregating the interval
// flow deltas around the gate event yields src/dst latency heatmaps of its
// blast radius. Two phases tell the story:
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
// as one network-wide average; ExampleSessionConfig_WithTelemetry shows
// the same event time-resolved.
func ExampleSessionConfig_WithTelemetry_flowBuckets() {
	const (
		n       = 64
		gateOff = 6000
		gateOn  = 38000 // one 100 us reconfiguration interval after gate-off
		// settle splits the gated window: the first settle cycles after
		// gate-off are the transient (healed shortcut links charging their
		// 5 us wake latency ≈ 1563 cycles, displaced traffic draining), the
		// rest is the gated steady state.
		settle = 10000
	)
	net, err := stringfigure.New(stringfigure.WithNodes(n), stringfigure.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// Gate nodes 16..31 (groups 2 and 3) off at gateOff, back on at gateOn.
	cfg := stringfigure.SessionConfig{
		Rate:           0.1,
		Warmup:         1000,
		Measure:        45000,
		Seed:           3,
		TelemetryEvery: 1000,
		Scenario:       []stringfigure.ScenarioSpec{quadrantGate(gateOff, gateOn)},
		FlowBuckets:    flowGroups,
	}

	fmt.Printf("%d-node String Figure, uniform traffic at rate %.2f, %dx%d flow groups\n",
		n, cfg.Rate, flowGroups, flowGroups)
	fmt.Printf("gating nodes 16..31 (groups 2-3) off at cycle %d, on at %d\n\n", gateOff, gateOn)

	var before, transient, settled flowPhase
	cfg = cfg.WithTelemetry(0, func(s stringfigure.TelemetrySnapshot) {
		var ph *flowPhase
		switch {
		case s.Cycle <= gateOff:
			ph = &before
		case s.Cycle <= gateOff+settle:
			ph = &transient
		case s.Cycle <= gateOn:
			ph = &settled
		default:
			return // recovery after gate-on: ExampleSessionConfig_WithTelemetry's territory
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
	gated := func(g int) bool { return g == 2 || g == 3 }
	fmt.Printf("%-10s", "transient:")
	printFlowSplit("gated", &before, &transient, gated)
	fmt.Printf("%-10s", "settled:")
	printFlowSplit("gated", &before, &settled, gated)
	fmt.Printf("\nfinal: %d delivered / %d injected, avg %.1f ns, deadlocked=%v, %d/%d nodes alive\n",
		res.Delivered, res.Injected, res.AvgLatencyNs, res.Deadlocked, net.AliveCount(), n)
	// Output:
	// 64-node String Figure, uniform traffic at rate 0.10, 8x8 flow groups
	// gating nodes 16..31 (groups 2-3) off at cycle 6000, on at 38000
	//
	// transient (first ~30us after gate-off), latency delta vs healthy baseline:
	//           dst0         dst1         dst2         dst3         dst4         dst5         dst6         dst7
	//   src0    +494   ###   +430   ###   +10          +13          +459   ###   +419   ###   +530   ###   +417   ###
	//   src1    +582   ###   +562   ###   x            x            +500   ###   +546   ###   +535   ###   +510   ###
	//   src2    +1664  #####  +7           x            x            x            -3           x            +4992  ######
	//   src3    -11          -3           x            x            x            x            +4995  ######  -5
	//   src4    +489   ###   +425   ###   +14          x            +388   ###   +493   ###   +441   ###   +384   ###
	//   src5    +399   ###   +416   ###   x            x            +526   ###   +545   ###   +442   ###   +474   ###
	//   src6    +486   ###   +511   ###   x            -9           +455   ###   +577   ###   +626   ####  +546   ###
	//   src7    +353   ###   +511   ###   -15          x            +461   ###   +477   ###   +570   ###   +558   ###
	//
	// settled gated phase, latency delta vs healthy baseline:
	//           dst0         dst1         dst2         dst3         dst4         dst5         dst6         dst7
	//   src0    -4           -3           x            x            -2           -3           -4           -3
	//   src1    -5           -5           x            x            -1           -3           -2           -3
	//   src2    x            x            x            x            x            x            x            x
	//   src3    x            x            x            x            x            x            x            x
	//   src4    -3           -4           x            x            -1           -5           -2           -2
	//   src5    -2           -3           x            x            -4           -4           -3           -3
	//   src6    -2           -2           x            x            -2           -2           +0           -2
	//   src7    -3           -3           x            x            -3           -2           -2           -2
	//
	// transient:  flows touching the gated groups   +896.0 ns (13 flows, 15 starved)  |  flows between live groups +487.2 ns (36 flows)
	// settled:    flows touching the gated groups starved (28 flows, 0 delivering)  |  flows between live groups   -2.8 ns (36 flows)
	//
	// final: 189906 delivered / 189934 injected, avg 115.8 ns, deadlocked=false, 64/64 nodes alive
}

// heatmap prints one phase's latency delta against the baseline: a signed
// delta per flow cell with a log-scale bar (one # per factor of two above
// 75 ns), or x for a flow with no deliveries in the phase (starved by the
// gate — its endpoints are dark).
func heatmap(title string, base, ph *flowPhase) {
	fmt.Println(title)
	row := fmt.Sprintf("%8s", "")
	for d := 0; d < flowGroups; d++ {
		row += fmt.Sprintf("  dst%-8d", d)
	}
	fmt.Println(strings.TrimRight(row, " "))
	for src := 0; src < flowGroups; src++ {
		row = fmt.Sprintf("  src%-3d", src)
		for dst := 0; dst < flowGroups; dst++ {
			b, okB := base.mean(src, dst)
			cur, okC := ph.mean(src, dst)
			if !okB || !okC {
				row += fmt.Sprintf("  %-11s", "x")
				continue
			}
			delta := cur - b
			bar := 0
			for x := delta; x > 75 && bar < 6; x /= 2 {
				bar++
			}
			row += fmt.Sprintf("  %+-7.0f%-4s", delta, strings.Repeat("#", bar))
		}
		fmt.Println(strings.TrimRight(row, " "))
	}
	fmt.Println()
}

// The scenario engine's headline: one declarative ScenarioSpec —
// FailureStorm(start, center, radius, recover) — compiles into the full
// gate schedule a correlated regional failure needs: every node within
// circular id-distance radius of center gates off at start and back on
// recover cycles later, under the paper's Section VI epoch rules (one
// reconfiguration epoch per event group, gate-ons deferred past the link
// wake latency). The session stamps each applied action onto the
// telemetry stream as ScenarioEvent records, so this program never
// hardcodes the storm region: it learns which nodes went dark from the
// stream itself.
//
// Per-flow telemetry (SessionConfig.FlowBuckets) then resolves the
// elasticity argument: during the storm, flows touching the dark groups
// starve or straggle out through escape routes with large latency
// spikes, while flows between live groups keep delivering on the healed
// shortcuts for a bounded congestion penalty — and snap back to baseline
// within noise once the region recovers. The network keeps serving
// everyone the storm didn't take out.
// ExampleSessionConfig_WithTelemetry_flowBuckets shows the same split as
// full src/dst heatmaps for a hand-written gate list.
func ExampleFailureStorm() {
	const (
		n       = 64
		stormAt = 6000
		// recoverAfter is one 100 us reconfiguration interval (31250
		// cycles) rounded up: the earliest the epoch rules let the region
		// power back on.
		recoverAfter = 32000
	)
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
		FlowBuckets:    flowGroups,
		Scenario: []stringfigure.ScenarioSpec{
			stringfigure.FailureStorm(stormAt, 24, 7, recoverAfter),
		},
	}

	fmt.Printf("%d-node String Figure, uniform traffic at rate %.2f, %dx%d flow groups\n",
		n, cfg.Rate, flowGroups, flowGroups)
	fmt.Printf("failure storm: radius-7 region around node 24 gates off at cycle %d, recovers after %d cycles\n\n",
		stormAt, recoverAfter)

	// The storm region and its recovery cycle come from the stream's
	// ScenarioEvent records, not from re-deriving the schedule here.
	var before, storm, recovered flowPhase
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
		var ph *flowPhase
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
	// firstCycle is the cycle of the first applied event of a kind, or -1
	// if the schedule never produced one.
	firstCycle := func(kind string) int64 {
		for _, ev := range applied {
			if ev.Kind == kind {
				return ev.Cycle
			}
		}
		return -1
	}
	fmt.Printf("scenario applied %d events; storm region (from the event stream): %v\n",
		len(applied), region)
	fmt.Printf("first gate-off at cycle %d, first gate-on at cycle %d (epoch-deferred past the wake latency)\n\n",
		firstCycle("gate-off"), firstCycle("gate-on"))

	stormGroup := make([]bool, flowGroups)
	for v := range everDark {
		stormGroup[v/(n/flowGroups)] = true
	}
	inStorm := func(g int) bool { return stormGroup[g] }
	fmt.Printf("%-14s", "storm window:")
	printFlowSplit("storm", &before, &storm, inStorm)
	fmt.Printf("%-14s", "recovered:")
	printFlowSplit("storm", &before, &recovered, inStorm)
	fmt.Printf("\nfinal: %d delivered / %d injected, avg %.1f ns, deadlocked=%v, %d/%d nodes alive\n",
		res.Delivered, res.Injected, res.AvgLatencyNs, res.Deadlocked, net.AliveCount(), n)
	// Output:
	// 64-node String Figure, uniform traffic at rate 0.10, 8x8 flow groups
	// failure storm: radius-7 region around node 24 gates off at cycle 6000, recovers after 32000 cycles
	//
	// scenario applied 30 events; storm region (from the event stream): [17 18 19 20 21 22 23 24 25 26 27 28 29 30 31]
	// first gate-off at cycle 6000, first gate-on at cycle 39562 (epoch-deferred past the wake latency)
	//
	// storm window:   flows touching the storm groups   +433.3 ns (18 flows, 10 starved)  |  flows between live groups +214.6 ns (36 flows)
	// recovered:      flows touching the storm groups     +0.1 ns (28 flows, 0 starved)  |  flows between live groups   -0.3 ns (36 flows)
	//
	// final: 195310 delivered / 195335 injected, avg 160.7 ns, deadlocked=false, 64/64 nodes alive
}
