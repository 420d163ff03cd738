package experiments

import (
	"math/rand"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/netsim"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ProcessorPlacement reproduces the Section V processor-placement study:
// memory traffic injected from different processor attachment points —
// corner nodes, a subset (one per quadrant), random nodes, or all nodes —
// with uniform-random destinations, reporting mean latency per arrangement.
// Each run measures cfg's windows as given (no session defaults apply).
// Every arrangement is one figure cell, and the cells run on the harness's
// cell pool.
func ProcessorPlacement(n int, rate float64, cfg stringfigure.SessionConfig) (*stats.Series, error) {
	seed := cfg.Seed
	d, err := design.Build(design.Spec{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	grid := placement.Place(d.Graph, seed, 2)

	// Attachment arrangements.
	corners := cornersOf(grid)
	subset := spreadNodes(n, 8)
	rng := rand.New(rand.NewSource(seed + 5))
	random := rng.Perm(n)[:min(8, n)]
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	arrangements := []struct {
		name    string
		sources []int
	}{
		{"corner", corners},
		{"subset", subset},
		{"random", random},
		{"all", all},
	}

	uniform, err := traffic.NewPattern("uniform", n)
	if err != nil {
		return nil, err
	}
	// Cell i is arrangement i, each on its own simulator over the shared
	// design.
	rows, err := runCells(len(arrangements), nil, func(i int) ([]float64, error) {
		a := arrangements[i]
		nc := d.NetCfg(seed)
		nc.PacketFlits = 1
		nc.LinkLatency = grid.LinkLatency(netsim.DefaultLinkLatency)
		sim, err := netsim.New(nc)
		if err != nil {
			return nil, err
		}
		// Scale the per-source rate so total offered load is comparable
		// across arrangements.
		perSource := rate * float64(n) / float64(len(a.sources))
		if perSource > 1 {
			perSource = 1
		}
		pat := traffic.Subset(uniform, a.sources)
		sim.SetPattern(perSource, func(src int, r *rand.Rand) (int, bool) { return pat(src, r) })
		res := sim.RunMeasured(cfg.Warmup, cfg.Measure)
		sim.Release()
		frac := res.DeliveredFraction()
		lat := res.AvgLatencyNs()
		if res.Deadlocked {
			lat, frac = 0, 0
		}
		return []float64{float64(len(a.sources)), lat, frac}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Section V: processor placement study (uniform traffic)",
		"sources", "latency_ns", "delivered_frac")
	for i, a := range arrangements {
		s.AddLabeledRow(a.name, rows[i]...)
	}
	return s, nil
}

// cornersOf returns the nodes placed nearest the four grid corners.
func cornersOf(grid *placement.Grid) []int {
	targets := [][2]int{
		{0, 0}, {0, grid.Cols - 1}, {grid.Rows - 1, 0}, {grid.Rows - 1, grid.Cols - 1},
	}
	out := make([]int, 0, 4)
	for _, t := range targets {
		best, bestD := 0, 1<<30
		for v := 0; v < grid.N; v++ {
			dr := grid.Pos[v][0] - t[0]
			dc := grid.Pos[v][1] - t[1]
			d := dr*dr + dc*dc
			if d < bestD {
				best, bestD = v, d
			}
		}
		out = append(out, best)
	}
	return out
}

// spreadNodes returns k node IDs evenly spread over 0..n-1.
func spreadNodes(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * n / k
	}
	return out
}

// QuantizationStudy measures the documented 7-bit coordinate limitation
// (Section IV, Figure 6(b)): per coordinate width, the fraction of random
// routes that still deliver under strict-decrease greedy routing, plus the
// mean path length of successful routes. Exact coordinates (bits=0) always
// deliver; narrow widths collapse on large networks. Every bit width is
// one figure cell, and the cells run on the harness's cell pool.
func QuantizationStudy(n int, bitWidths []int, trials int, seed int64) (*stats.Series, error) {
	if len(bitWidths) == 0 {
		bitWidths = []int{0, 12, 10, 8, 7, 6}
	}
	if trials <= 0 {
		trials = 400
	}
	sf, err := topology.NewPaperSF(n, seed)
	if err != nil {
		return nil, err
	}
	// Cell i is bit width i, each on its own router over the shared
	// topology.
	rows, err := runCells(len(bitWidths), nil, func(i int) ([]float64, error) {
		bits := bitWidths[i]
		g := routing.NewGreediest(sf, bits)
		rng := rand.New(rand.NewSource(seed + int64(bits)))
		ok, sum, attempted := 0, 0, 0
		for attempted < trials {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			attempted++
			if hops, delivered := g.ZeroLoadPathLength(src, dst); delivered {
				ok++
				sum += hops
			}
		}
		meanPath := 0.0
		if ok > 0 {
			meanPath = float64(sum) / float64(ok)
		}
		return []float64{float64(bits), 100 * float64(ok) / float64(trials), meanPath}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Section IV: coordinate quantization study",
		"bits", "delivered_pct", "mean_path")
	for _, row := range rows {
		s.AddRow(row...)
	}
	return s, nil
}

// MetaCubeStudy reproduces the Section IV physical-organization analysis:
// cluster the network into interposer MetaCubes of varying sizes and report
// the fraction of links that stay on-interposer, the mean uniform-traffic
// latency under the MetaCube wire model, and the same latency under a flat
// 2D-grid placement. Each run measures cfg's windows as given. The flat
// grid and every cube size are one figure cell each, and the cells run on
// the harness's cell pool.
func MetaCubeStudy(n int, cubeSizes []int, rate float64, cfg stringfigure.SessionConfig) (*stats.Series, error) {
	if len(cubeSizes) == 0 {
		cubeSizes = []int{8, 16, 32}
	}
	seed := cfg.Seed
	d, err := design.Build(design.Spec{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	grid := placement.Place(d.Graph, seed, 2)
	uniform, err := traffic.NewPattern("uniform", n)
	if err != nil {
		return nil, err
	}
	runWith := func(linkLat func(u, v int) int) (float64, error) {
		nc := d.NetCfg(seed)
		nc.PacketFlits = 1
		nc.LinkLatency = linkLat
		sim, err := netsim.New(nc)
		if err != nil {
			return 0, err
		}
		sim.SetPattern(rate, func(src int, r *rand.Rand) (int, bool) { return uniform(src, r) })
		res := sim.RunMeasured(cfg.Warmup, cfg.Measure)
		sim.Release()
		if res.Deadlocked || res.Delivered == 0 {
			return 0, nil
		}
		return res.AvgLatencyNs(), nil
	}

	// Cell 0 is the flat grid, cell i > 0 cube size i-1: the flat latency
	// and the cube's intra-link share and latency.
	type cell struct{ intraPct, ns float64 }
	cells, err := runCells(1+len(cubeSizes), nil, func(i int) (cell, error) {
		if i == 0 {
			ns, err := runWith(grid.LinkLatency(netsim.DefaultLinkLatency))
			return cell{ns: ns}, err
		}
		mc, err := placement.NewMetaCube(d.SF, cubeSizes[i-1])
		if err != nil {
			return cell{}, err
		}
		ns, err := runWith(mc.LinkLatency(netsim.DefaultLinkLatency))
		return cell{100 * mc.IntraCubeFraction(d.SF.BaseLinks()), ns}, err
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Section IV: MetaCube clustering study (uniform traffic)",
		"cube_size", "intra_link_pct", "metacube_ns", "flat_grid_ns")
	for i, size := range cubeSizes {
		s.AddRow(float64(size), cells[1+i].intraPct, cells[1+i].ns, cells[0].ns)
	}
	return s, nil
}
