package experiments

import (
	"math/rand"

	stringfigure "repro"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// AblationUniBidi reproduces the Section VI sensitivity study on uni-
// versus bi-directional connections: average path length and saturation
// injection rate for the strict uni-directional variant (one wire per port
// half, clockwise metric) against the bidirectional default, at equal port
// count — both through the public API's wire-variant options and parallel
// saturation search (cfg's windows and seed, rate resolution step). Every
// (scale, variant) network is one figure cell, and the cells run on the
// harness's cell pool, largest N first.
func AblationUniBidi(scales []int, cfg stringfigure.SessionConfig, step float64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{32, 64, 128, 256}
	}
	// Cell i is (scale, variant) in row-major order, uni-directional
	// first; a saturation search's cost grows with N.
	type cell struct{ path, satPct float64 }
	largestN := func(i int) float64 { return float64(scales[i/2]) }
	cells, err := runCells(2*len(scales), largestN, func(i int) (cell, error) {
		n := scales[i/2]
		opts := []stringfigure.Option{
			stringfigure.WithNodes(n), stringfigure.WithSeed(cfg.Seed),
		}
		if i%2 == 0 {
			opts = append(opts, stringfigure.Unidirectional())
		}
		net, err := stringfigure.New(opts...)
		if err != nil {
			return cell{}, err
		}
		path := net.PathLengths(min(n, 64)).Mean
		sat, err := net.Saturation(stringfigure.SyntheticWorkload{Pattern: "uniform"}, cfg, step)
		return cell{path, sat * 100}, err
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Ablation: uni- vs bi-directional connections",
		"nodes", "uni_path", "bidi_path", "uni_sat_pct", "bidi_sat_pct")
	for si, n := range scales {
		uni, bidi := cells[2*si], cells[2*si+1]
		s.AddRow(float64(n), uni.path, bidi.path, uni.satPct, bidi.satPct)
	}
	return s, nil
}

// AblationLookahead measures the value of storing two-hop neighbors in the
// routing tables (Section III-B's sensitivity study): mean greedy path
// length with and without the two-hop lookahead. It probes the routing
// mechanism directly — there is no public knob for crippling the tables.
// Every scale is one figure cell, and the cells run on the harness's cell
// pool, largest N first; a scale with no routable pair has no row.
func AblationLookahead(scales []int, seed int64) (*stats.Series, error) {
	if len(scales) == 0 {
		scales = []int{64, 128, 256, 512}
	}
	largestN := func(i int) float64 { return float64(scales[i]) }
	rows, err := runCells(len(scales), largestN, func(i int) ([]float64, error) {
		n := scales[i]
		sf, err := topology.NewPaperSF(n, seed)
		if err != nil {
			return nil, err
		}
		with := routing.NewGreediest(sf, 0)
		without := *with // the same tables, read without the two-hop entries
		without.Lookahead = false
		rng := rand.New(rand.NewSource(seed))
		var sumW, sumWo, pairs int
		var bfsSum float64
		g := sf.Graph()
		for trial := 0; trial < 400; trial++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			a, ok1 := with.ZeroLoadPathLength(src, dst)
			b, ok2 := without.ZeroLoadPathLength(src, dst)
			if !ok1 || !ok2 {
				continue
			}
			d := g.BFS(src)[dst]
			sumW += a
			sumWo += b
			bfsSum += float64(d)
			pairs++
		}
		if pairs == 0 {
			return nil, nil
		}
		return []float64{float64(n),
			float64(sumWo) / float64(pairs),
			float64(sumW) / float64(pairs),
			bfsSum / float64(pairs)}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Ablation: 1-hop vs 1+2-hop routing tables",
		"nodes", "greedy_1hop", "greedy_2hop", "bfs_optimal")
	for _, row := range rows {
		if row != nil {
			s.AddRow(row...)
		}
	}
	return s, nil
}

// AblationShortcuts quantifies what the pre-provisioned shortcut wires buy
// after down-scaling: mean shortest path over the alive subnetwork with
// ring healing via shortcuts (SF) versus an S2-style network that merely
// drops the dead nodes' links (no healing, may disconnect — measured as
// reachable-pair path length and connectivity fraction). Every gated
// fraction is one figure cell, and the cells run on the harness's cell
// pool.
func AblationShortcuts(n int, gateFracs []float64, seed int64) (*stats.Series, error) {
	if len(gateFracs) == 0 {
		gateFracs = []float64{0.1, 0.2, 0.3, 0.5}
	}
	rows, err := runCells(len(gateFracs), nil, func(i int) ([]float64, error) {
		frac := gateFracs[i]
		sf, err := topology.NewPaperSF(n, seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 3))
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		for gated := 0; gated < int(frac*float64(n)); {
			v := rng.Intn(n)
			if !alive[v] {
				continue
			}
			alive[v] = false
			gated++
		}

		// SF: reconfiguration heals rings via shortcuts/switches.
		net := reconfig.New(sf)
		if err := net.SetAlive(alive); err != nil {
			return nil, err
		}
		sfPath, sfConn := reachableStats(net.Graph(), alive)

		// S2-style: same dead set, links to dead nodes dropped, nothing
		// re-linked.
		raw := sf.Graph().InducedSubgraph(alive)
		s2Path, s2Conn := reachableStats(raw, alive)

		return []float64{frac * 100, sfPath, sfConn * 100, s2Path, s2Conn * 100}, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Ablation: down-scaling with healing (SF) vs without (S2-style)",
		"gated_pct", "sf_path", "sf_connected_pct", "s2_path", "s2_connected_pct")
	for _, row := range rows {
		s.AddRow(row...)
	}
	return s, nil
}

// AblationAdaptiveThreshold sweeps the adaptive-routing queue threshold
// (the paper's user-defined 50% default) at a fixed load and reports mean
// latency, through the public session knob, with cfg's windows and seed.
// Every threshold is one figure cell, a session on one shared network, and
// the cells run on the harness's cell pool.
func AblationAdaptiveThreshold(n int, rate float64, thresholds []float64, cfg stringfigure.SessionConfig) (*stats.Series, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.125, 0.25, 0.5, 0.75, 1.0}
	}
	net, err := buildNet("sf", n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cfg.Rate = rate
	latencies, err := runCells(len(thresholds), nil, func(i int) (float64, error) {
		tc := cfg
		tc.AdaptiveThreshold = thresholds[i]
		res, err := net.NewSession(tc).Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			return 0, err
		}
		if res.Deadlocked || res.Delivered == 0 {
			return 0, nil
		}
		return res.AvgLatencyNs, nil
	})
	if err != nil {
		return nil, err
	}
	s := stats.NewSeries("Ablation: adaptive threshold sweep (uniform traffic)",
		"threshold_pct", "latency_ns")
	for i, th := range thresholds {
		s.AddRow(th*100, latencies[i])
	}
	return s, nil
}
