package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/design"
	"repro/internal/topology"
)

// errNoTopology reports a design built without a String Figure topology
// (the mesh and butterfly baselines).
var errNoTopology = errors.New("no String Figure topology (want sf or s2)")

// printTopology builds the named design at n nodes and prints its String
// Figure topology in one format: summary (virtual spaces, wire counts,
// degree and path-length statistics), links (every wire) or dot (Graphviz).
func printTopology(designName string, n int, seed int64, format string) error {
	printers := map[string]func(*topology.StringFigure){
		"summary": printSummary, "links": printLinks, "dot": printDot,
	}
	printSF, ok := printers[format]
	if !ok {
		return fmt.Errorf("unknown format %q (want summary, links or dot)", format)
	}
	d, err := design.Build(design.Spec{Kind: designName, N: n, Seed: seed})
	if err != nil {
		return err
	}
	if d.SF == nil {
		return fmt.Errorf("design %q: %w", designName, errNoTopology)
	}
	printSF(d.SF)
	return nil
}

func printSummary(sf *topology.StringFigure) {
	g := sf.Graph()
	st := g.SampledPathLengths(min(sf.Cfg.N, 128), rand.New(rand.NewSource(1)))
	fmt.Printf("String Figure topology: N=%d ports=%d spaces=%d seed=%d bidirectional=%v\n",
		sf.Cfg.N, sf.Cfg.Ports, sf.Spaces, sf.Cfg.Seed, sf.Cfg.Bidirectional)
	fmt.Printf("wires: %d ring, %d extra, %d shortcut (inactive at full scale)\n",
		len(sf.Rings), len(sf.Extras), len(sf.Shortcuts))
	fmt.Printf("max connections per node: %d\n", sf.MaxConnectionsPerNode())
	fmt.Printf("strongly connected: %v\n", g.StronglyConnected())
	fmt.Printf("shortest paths: mean=%.3f p10=%d p90=%d diameter=%d\n",
		st.Mean, st.P10, st.P90, st.Diameter)
}

func printLinks(sf *topology.StringFigure) {
	links := sf.AllLinks()
	topology.SortLinks(links)
	for _, l := range links {
		space := "-"
		if l.Space >= 0 {
			space = fmt.Sprint(l.Space)
		}
		fmt.Printf("%4d -> %4d  type=%-8s space=%s\n", l.From, l.To, l.Type, space)
	}
}

func printDot(sf *topology.StringFigure) {
	fmt.Println("digraph stringfigure {")
	fmt.Println("  rankdir=LR; node [shape=circle];")
	for _, l := range sf.BaseLinks() {
		fmt.Printf("  %d -> %d;\n", l.From, l.To)
	}
	for _, l := range sf.Shortcuts {
		fmt.Printf("  %d -> %d [style=dashed, color=red];\n", l.From, l.To)
	}
	fmt.Println("}")
}
