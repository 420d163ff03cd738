package experiments

import (
	"math/rand"

	"repro/internal/design"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Fig5Scales are the x-axis points of Figure 5.
var Fig5Scales = []int{100, 200, 400, 800, 1200}

// sampleMean returns the mean shortest-path length of g using BFS from a
// sample of sources (sources <= 0 means all nodes).
func sampleMean(g *graph.Graph, sources int, seed int64) float64 {
	if sources <= 0 || sources > g.N() {
		sources = g.N()
	}
	st := g.SampledPathLengths(sources, rand.New(rand.NewSource(seed)))
	return st.Mean
}

// Fig5 reproduces Figure 5: average shortest path length of Jellyfish, S2
// and String Figure topologies as the network grows, demonstrating that the
// SF generator yields sufficiently uniform random graphs. Jellyfish uses
// the same degree budget as the SF design at each scale (PortsForN). Each
// point averages `seeds` topology instances; BFS runs from `sources`
// sampled sources (<= 0 = all). Every (scale, seed, topology) instance is
// one figure cell, and the cells run on the harness's cell pool, largest N
// first.
func Fig5(scales []int, seeds int, sources int) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig5Scales
	}
	if seeds <= 0 {
		seeds = 3
	}
	// Cell i is (scale, seed, topology) in row-major order, the topologies
	// in column order; a BFS sample's cost grows with N.
	const topologies = 3
	scaleOf := func(i int) int { return scales[i/(seeds*topologies)] }
	largestN := func(i int) float64 { return float64(scaleOf(i)) }
	means, err := runCells(len(scales)*seeds*topologies, largestN, func(i int) (float64, error) {
		n, seed := scaleOf(i), int64(i/topologies%seeds)+1
		g, err := fig5Graph(i%topologies, n, seed)
		if err != nil {
			return 0, err
		}
		return sampleMean(g, sources, seed), nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Figure 5: average shortest path length",
		"nodes", "jellyfish", "s2", "stringfigure")
	for si, n := range scales {
		row := []float64{float64(n)}
		for t := range topologies {
			perSeed := make([]float64, seeds)
			for k := range perSeed {
				perSeed[k] = means[(si*seeds+k)*topologies+t]
			}
			row = append(row, stats.Mean(perSeed))
		}
		s.AddRow(row...)
	}
	return s, nil
}

// fig5Graph builds Figure 5's topology column t (Jellyfish, S2, String
// Figure) at n nodes, all three on SF's degree budget.
func fig5Graph(t, n int, seed int64) (*graph.Graph, error) {
	switch t {
	case 0:
		j, err := topology.NewJellyfish(n, topology.PortsForN(n), seed)
		if err != nil {
			return nil, err
		}
		return j.Graph(), nil
	case 1:
		s2, err := topology.NewS2(n, topology.PortsForN(n), seed, true)
		if err != nil {
			return nil, err
		}
		return s2.Graph(), nil
	default:
		sf, err := topology.NewPaperSF(n, seed)
		if err != nil {
			return nil, err
		}
		return sf.Graph(), nil
	}
}

// Fig9aScales are the x-axis points of Figure 9(a).
var Fig9aScales = []int{16, 32, 64, 128, 256, 512, 1024, 1296}

// Fig9a reproduces Figure 9(a): average hop count of every design as the
// network scales, plus the 10th/90th-percentile columns the paper quotes
// for String Figure. FB/AFB hop counts are at router granularity (their
// concentration hides node-to-node hops inside a router), which matches how
// the paper plots them. Every (scale, design) build is one figure cell, and
// the cells run on the harness's cell pool, largest N first.
func Fig9a(scales []int, sources int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig9aScales
	}
	// Cell i is (scale, design) in row-major order; a build and its BFS
	// sample grow with N.
	kinds := len(design.Names)
	scaleOf := func(i int) int { return scales[i/kinds] }
	largestN := func(i int) float64 { return float64(scaleOf(i)) }
	hops, err := runCells(len(scales)*kinds, largestN, func(i int) (graph.PathLengthStats, error) {
		kind, n := design.Names[i%kinds], scaleOf(i)
		if !design.Supports(kind, n) {
			return graph.PathLengthStats{}, nil // unsupported scale, matches "N" in Fig 8
		}
		d, err := design.Build(design.Spec{Kind: kind, N: n, Seed: seed})
		if err != nil {
			return graph.PathLengthStats{}, err
		}
		src := sources
		if src <= 0 || src > d.Routers {
			src = d.Routers
		}
		return d.Graph.SampledPathLengths(src, rand.New(rand.NewSource(seed))), nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Figure 9(a): average shortest-path hop count",
		"nodes", "dm", "odm", "fb", "afb", "s2", "sf", "sf_p10", "sf_p90")
	for si, n := range scales {
		row := []float64{float64(n)}
		var sfP10, sfP90 float64
		for d, kind := range design.Names {
			st := hops[si*kinds+d]
			row = append(row, st.Mean)
			if kind == "sf" {
				sfP10, sfP90 = float64(st.P10), float64(st.P90)
			}
		}
		row = append(row, sfP10, sfP90)
		s.AddRow(row...)
	}
	return s, nil
}

// Bisection reproduces the Section V bisection-bandwidth methodology table:
// the empirical minimum bisection bandwidth of each design (cuts random
// bisections, max-flow each) and the ODM width chosen from it. Every scale
// is one figure cell, and the cells run on the harness's cell pool, largest
// N first.
func Bisection(scales []int, cuts int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{16, 64, 128}
	}
	if cuts <= 0 {
		cuts = 10
	}
	largestN := func(i int) float64 { return float64(scales[i]) }
	rows, err := runCells(len(scales), largestN, func(i int) ([]float64, error) {
		n := scales[i]
		m, err := topology.NewMesh(n)
		if err != nil {
			return nil, err
		}
		sf, err := topology.NewPaperSF(n, seed)
		if err != nil {
			return nil, err
		}
		s2, err := topology.NewS2(n, topology.PortsForN(n), seed, true)
		if err != nil {
			return nil, err
		}
		// Random cuts suit random topologies (any balanced cut is near
		// minimal); the planar mesh needs its true geometric bisection.
		meshBW := design.MeshGeometricBisection(m)
		sfBW := sf.Graph().BisectionBandwidth(cuts, rand.New(rand.NewSource(seed)))
		s2BW := s2.Graph().BisectionBandwidth(cuts, rand.New(rand.NewSource(seed)))
		width, err := design.ODMWidth(n, seed)
		if err != nil {
			return nil, err
		}
		return []float64{float64(n), meshBW, sfBW, s2BW, float64(width)}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Section V: empirical bisection bandwidth",
		"nodes", "dm", "sf", "s2", "odm_width")
	for _, row := range rows {
		s.AddRow(row...)
	}
	return s, nil
}
