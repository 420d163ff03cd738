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
// sampled sources (<= 0 = all).
func Fig5(scales []int, seeds int, sources int) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig5Scales
	}
	if seeds <= 0 {
		seeds = 3
	}
	s := stats.NewSeries("Figure 5: average shortest path length",
		"nodes", "jellyfish", "s2", "stringfigure")
	for _, n := range scales {
		var jf, s2, sf []float64
		for seed := int64(1); seed <= int64(seeds); seed++ {
			deg := topology.PortsForN(n)
			j, err := topology.NewJellyfish(n, deg, seed)
			if err != nil {
				return nil, err
			}
			jf = append(jf, sampleMean(j.Graph(), sources, seed))

			s2t, err := topology.NewS2(n, deg, seed, true)
			if err != nil {
				return nil, err
			}
			s2 = append(s2, sampleMean(s2t.Graph(), sources, seed))

			sft, err := topology.NewPaperSF(n, seed)
			if err != nil {
				return nil, err
			}
			sf = append(sf, sampleMean(sft.Graph(), sources, seed))
		}
		s.AddRow(float64(n), stats.Mean(jf), stats.Mean(s2), stats.Mean(sf))
	}
	return s, nil
}

// Fig9aScales are the x-axis points of Figure 9(a).
var Fig9aScales = []int{16, 32, 64, 128, 256, 512, 1024, 1296}

// Fig9a reproduces Figure 9(a): average hop count of every design as the
// network scales, plus the 10th/90th-percentile columns the paper quotes
// for String Figure. FB/AFB hop counts are at router granularity (their
// concentration hides node-to-node hops inside a router), which matches how
// the paper plots them.
func Fig9a(scales []int, sources int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig9aScales
	}
	s := stats.NewSeries("Figure 9(a): average shortest-path hop count",
		"nodes", "dm", "odm", "fb", "afb", "s2", "sf", "sf_p10", "sf_p90")
	for _, n := range scales {
		row := []float64{float64(n)}
		var sfP10, sfP90 float64
		for _, kind := range design.Names {
			if !design.Supports(kind, n) {
				row = append(row, 0) // unsupported scale, matches "N" in Fig 8
				continue
			}
			d, err := design.Build(design.Spec{Kind: kind, N: n, Seed: seed})
			if err != nil {
				return nil, err
			}
			src := sources
			if src <= 0 || src > d.Routers {
				src = d.Routers
			}
			st := d.Graph.SampledPathLengths(src, rand.New(rand.NewSource(seed)))
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
// bisections, max-flow each) and the ODM width chosen from it.
func Bisection(scales []int, cuts int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{16, 64, 128}
	}
	if cuts <= 0 {
		cuts = 10
	}
	s := stats.NewSeries("Section V: empirical bisection bandwidth",
		"nodes", "dm", "sf", "s2", "odm_width")
	for _, n := range scales {
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
		s.AddRow(float64(n), meshBW, sfBW, s2BW, float64(width))
	}
	return s, nil
}
