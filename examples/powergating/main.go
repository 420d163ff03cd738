// Powergating: demonstrate the elastic network scale of Section III-C —
// dynamically gate a growing fraction of memory nodes off for power
// management, verify the network stays fully routable through shortcut
// healing, then bring the nodes back and statically down-mount the design
// (design-reuse path).
package main

import (
	"fmt"
	"log"
	"math/rand"

	stringfigure "repro"
)

func main() {
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
}
