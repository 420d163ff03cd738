package experiments

import (
	"strconv"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/stats"
)

// buildNet deploys one named design through the public front door,
// attached to the harness cluster when one is configured (UseCluster).
func buildNet(kind string, n int, seed int64) (*stringfigure.Network, error) {
	return stringfigure.New(netOptions(kind, n, seed)...)
}

// Fig10Scales are the x-axis points of Figure 10.
var Fig10Scales = []int{16, 32, 64, 128}

// Fig10Patterns are the traffic patterns Figure 10 highlights.
var Fig10Patterns = []string{"uniform", "hotspot", "tornado"}

// Fig10 reproduces Figure 10: the saturation injection rate (percent of
// cycles each router injects a single-flit request packet) of every design
// across network sizes, for the uniform random, hotspot and tornado
// patterns. Every (pattern, N, design) search is one figure cell, and the
// cells run on the harness's cell pool, largest N first. Saturation comes
// from the public parallel bracketing search, which fans candidate rates
// across the Sweep worker pool — the result is bit-identical for a fixed
// seed at any worker count. cfg supplies each candidate's warm-up and
// measurement windows and the seed; step is the search's rate resolution.
func Fig10(scales []int, patterns []string, cfg stringfigure.SessionConfig, step float64) ([]*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig10Scales
	}
	if len(patterns) == 0 {
		patterns = Fig10Patterns
	}
	// Cell i is (pattern, scale, design) in row-major order; a search's
	// cost grows with N.
	kinds := len(design.Names)
	scaleOf := func(i int) int { return scales[i/kinds%len(scales)] }
	largestN := func(i int) float64 { return float64(scaleOf(i)) }
	net := sharedNets(cfg.Seed)
	sats, err := runCells(len(patterns)*len(scales)*kinds, largestN, func(i int) (float64, error) {
		kind, n := design.Names[i%kinds], scaleOf(i)
		if !design.Supports(kind, n) {
			return 0, nil
		}
		nw, err := net(kind, n)
		if err != nil {
			return 0, err
		}
		// The search fans candidate waves across the harness cluster when
		// workers are connected and runs in-process otherwise —
		// bit-identical either way.
		pattern := patterns[i/(kinds*len(scales))]
		sat, err := nw.Saturation(stringfigure.SyntheticWorkload{Pattern: pattern}, cfg, step)
		return sat * 100, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Series, len(patterns))
	for p, pname := range patterns {
		s := stats.NewSeries("Figure 10: saturation injection rate (%), "+pname+" traffic",
			"nodes", "dm", "odm", "fb", "afb", "s2", "sf")
		for si, n := range scales {
			first := (p*len(scales) + si) * kinds
			s.AddRow(append([]float64{float64(n)}, sats[first:first+kinds]...)...)
		}
		out[p] = s
	}
	return out, nil
}

// Fig11Rates is the injection-rate axis of Figure 11.
var Fig11Rates = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80}

// Fig11Patterns are the traffic patterns Figure 11 plots, one series each.
var Fig11Patterns = []string{"uniform", "tornado", "hotspot"}

// Fig11 reproduces Figure 11: average packet latency (ns) versus injection
// rate across designs at a fixed network size, one series per traffic
// pattern. Every (pattern, design, rate) point is one figure cell, and the
// cells run on the harness's cell pool, highest rate first. Each point
// draws the session seed it would in one Sweep over the rate axis
// (PointSeed(cfg.Seed, rate index)); the rate axis overrides cfg.Rate.
func Fig11(n int, patterns []string, rates []float64, cfg stringfigure.SessionConfig) ([]*stats.Series, error) {
	if len(patterns) == 0 {
		patterns = Fig11Patterns
	}
	if len(rates) == 0 {
		rates = Fig11Rates
	}
	// Cell i is (pattern, design, rate) in row-major order; a session's
	// cost grows with its rate.
	kinds := len(design.Names)
	highestRate := func(i int) float64 { return rates[i%len(rates)] }
	net := sharedNets(cfg.Seed)
	latencies, err := runCells(len(patterns)*kinds*len(rates), highestRate, func(i int) (float64, error) {
		kind := design.Names[i/len(rates)%kinds]
		if !design.Supports(kind, n) {
			return 0, nil
		}
		nw, err := net(kind, n)
		if err != nil {
			return 0, err
		}
		// Shift the one-point sweep's base seed so its point draws the
		// seed of rate index r: PointSeed is affine in its base, so base
		// PointSeed(cfg.Seed, r-1) gives PointSeed(cfg.Seed, r) exactly.
		r := i % len(rates)
		pc := cfg
		pc.Seed = stringfigure.PointSeed(cfg.Seed, r-1)
		w := stringfigure.SyntheticWorkload{Pattern: patterns[i/(kinds*len(rates))]}
		res := nw.SweepAll(pc, stringfigure.RateSweep(w, rates[r:r+1]), 1)[0]
		if res.Err != nil {
			return 0, res.Err
		}
		if res.Deadlocked || res.Delivered == 0 {
			return 0, nil // saturated/unstable: plotted as a gap
		}
		return res.AvgLatencyNs, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Series, len(patterns))
	for p, pattern := range patterns {
		s := stats.NewSeries("Figure 11: avg packet latency (ns), "+pattern+" traffic, N="+strconv.Itoa(n),
			"inj_rate_pct", "dm", "odm", "fb", "afb", "s2", "sf")
		for r, rate := range rates {
			row := []float64{rate * 100}
			for d := range kinds {
				row = append(row, latencies[(p*kinds+d)*len(rates)+r])
			}
			s.AddRow(row...)
		}
		out[p] = s
	}
	return out, nil
}
