package experiments

import (
	"strconv"

	"repro/internal/design"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Table2 reproduces Table II (topology features) and the Figure 8 port
// table as one series: per design and scale, the router port count, plus
// feature flags (1 = yes): needs high-radix routers, ports scale with N,
// supports reconfigurable scaling. Every (design, scale) build is one
// figure cell, and the cells run on the harness's cell pool, largest N
// first.
func Table2(scales []int) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{128, 256, 512, 1024, 1296}
	}
	// Cell i is (design, scale) in row-major order; a build grows with N.
	scaleOf := func(i int) int { return scales[i%len(scales)] }
	largestN := func(i int) float64 { return float64(scaleOf(i)) }
	ports, err := runCells(len(design.Names)*len(scales), largestN, func(i int) (float64, error) {
		kind, n := design.Names[i/len(scales)], scaleOf(i)
		if !design.Supports(kind, n) {
			return 0, nil
		}
		d, err := design.Build(design.Spec{Kind: kind, N: n, Seed: 1})
		if err != nil {
			return 0, err
		}
		return float64(d.Ports), nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Table II / Figure 8: ports per router and features",
		append([]string{"high_radix", "port_scaling", "reconfigurable"},
			intHeaders(scales)...)...)
	for d, kind := range design.Names {
		first := d * len(scales)
		s.AddLabeledRow(kind, append(featureRow(kind), ports[first:first+len(scales)]...)...)
	}
	return s, nil
}

func featureRow(kind string) []float64 {
	switch kind {
	case "fb", "afb":
		return []float64{1, 1, 0} // high radix, port scaling, no reconfig
	case "sf":
		return []float64{0, 0, 1}
	default: // dm, odm, s2
		return []float64{0, 0, 0}
	}
}

func intHeaders(scales []int) []string {
	out := make([]string, len(scales))
	for i, n := range scales {
		out[i] = "N=" + strconv.Itoa(n)
	}
	return out
}

// ConnectionBound verifies the Section IV claim Cnode <= p/2 + 2 for the
// strict uni-directional build and reports per-scale max connections for
// both variants. Every scale is one figure cell, and the cells run on the
// harness's cell pool, largest N first.
func ConnectionBound(scales []int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{64, 128, 256, 512}
	}
	largestN := func(i int) float64 { return float64(scales[i]) }
	rows, err := runCells(len(scales), largestN, func(i int) ([]float64, error) {
		n := scales[i]
		p := topology.PortsForN(n)
		uni, err := topology.NewStringFigure(topology.Config{
			N: n, Ports: p, Seed: seed, Shortcuts: true,
		})
		if err != nil {
			return nil, err
		}
		bidi, err := topology.NewPaperSF(n, seed)
		if err != nil {
			return nil, err
		}
		// Bidirectional wires count at both endpoints, and a node can be
		// the source of up to two shortcuts and the target of two more.
		return []float64{float64(n), float64(p),
			float64(uni.MaxConnectionsPerNode()), float64(p/2 + 2),
			float64(bidi.MaxConnectionsPerNode()), float64(p + 4)}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Section IV: wires per node (uni bound p/2+2; bidi bound p+4)",
		"nodes", "ports", "uni_max", "uni_bound", "bidi_max", "bidi_bound")
	for _, row := range rows {
		s.AddRow(row...)
	}
	return s, nil
}
