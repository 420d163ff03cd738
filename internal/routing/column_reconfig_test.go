package routing_test

import (
	"slices"
	"testing"

	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestFirstHopColumnMidReconfiguration drives a network that adopted warm
// tables through gate-offs, gate-ons and a mount, and checks the column
// after each step. Every step swaps rebuilt tables in for the affected
// routers and leaves the others, with the compact views the column kernel
// built before the step; every step changes some first hop, so a view that
// outlived its table's entries fails.
func TestFirstHopColumnMidReconfiguration(t *testing.T) {
	sf, err := topology.NewPaperSF(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := routing.NewGreediest(sf, 0)
	net := reconfig.Adopt(sf, sf.OutNeighbors(), g)
	mounted := make([]bool, 64)
	for i := range mounted {
		mounted[i] = i < 48
	}
	gate := func(v int, on bool) func() error {
		return func() error {
			_, err := net.Gate(v, on)
			return err
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"gate off 5", gate(5, false)},
		{"gate off 9", gate(9, false)},
		{"gate on 5", gate(5, true)},
		{"mount 48", func() error { return net.SetAlive(mounted) }},
		{"gate on 50", gate(50, true)},
	}
	firstHops := func() []int32 {
		var sc routing.Scratch
		var all []int32
		for dst := range g.Tables {
			all = append(all, g.FirstHopColumn(&sc, dst)...)
		}
		return all
	}
	before := firstHops() // builds every table's compact view
	for _, st := range steps {
		tables := slices.Clone(g.Tables)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		kept := 0
		for u, tb := range g.Tables {
			if tb == tables[u] {
				kept++
			}
		}
		if kept == 0 {
			t.Errorf("%s replaced every table; no warm view carried over", st.name)
		}
		if mismatch, _ := routing.ColumnDiff(g); mismatch != "" {
			t.Fatalf("after %s: %s", st.name, mismatch)
		}
		after := firstHops()
		changed := 0
		for i := range after {
			if after[i] != before[i] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("%s changed no first hop; the step proves nothing about the views", st.name)
		}
		before = after
	}
}
