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
// patterns. Saturation comes from the public parallel bracketing search,
// which fans candidate rates across the Sweep worker pool — the result is
// bit-identical for a fixed seed at any worker count. cfg supplies each
// candidate's warm-up and measurement windows and the seed; step is the
// search's rate resolution.
func Fig10(scales []int, patterns []string, cfg stringfigure.SessionConfig, step float64) ([]*stats.Series, error) {
	if len(scales) == 0 {
		scales = Fig10Scales
	}
	if len(patterns) == 0 {
		patterns = Fig10Patterns
	}
	var out []*stats.Series
	for _, pname := range patterns {
		s := stats.NewSeries("Figure 10: saturation injection rate (%), "+pname+" traffic",
			"nodes", "dm", "odm", "fb", "afb", "s2", "sf")
		for _, n := range scales {
			row := []float64{float64(n)}
			for _, kind := range design.Names {
				if !design.Supports(kind, n) {
					row = append(row, 0)
					continue
				}
				net, err := buildNet(kind, n, cfg.Seed)
				if err != nil {
					return nil, err
				}
				// The search fans candidate waves across the harness
				// cluster when workers are connected and runs in-process
				// otherwise — bit-identical either way.
				sat, err := net.Saturation(stringfigure.SyntheticWorkload{Pattern: pname}, cfg, step)
				if err != nil {
					return nil, err
				}
				row = append(row, sat*100)
			}
			s.AddRow(row...)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig11Rates is the injection-rate axis of Figure 11.
var Fig11Rates = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80}

// Fig11 reproduces Figure 11: average packet latency (ns) versus injection
// rate for one traffic pattern across designs, at a fixed network size.
// Each design's rate axis runs as one parallel Sweep through the public
// API; the rate axis overrides cfg.Rate.
func Fig11(n int, pattern string, rates []float64, cfg stringfigure.SessionConfig) (*stats.Series, error) {
	if len(rates) == 0 {
		rates = Fig11Rates
	}
	s := stats.NewSeries("Figure 11: avg packet latency (ns), "+pattern+" traffic, N="+strconv.Itoa(n),
		"inj_rate_pct", "dm", "odm", "fb", "afb", "s2", "sf")
	points := stringfigure.RateSweep(stringfigure.SyntheticWorkload{Pattern: pattern}, rates)
	latencies := make(map[string][]float64, len(design.Names))
	for _, kind := range design.Names {
		if !design.Supports(kind, n) {
			continue
		}
		net, err := buildNet(kind, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(rates))
		for i, res := range net.SweepAll(cfg, points, 0) {
			if res.Err != nil {
				return nil, res.Err
			}
			if res.Deadlocked || res.Delivered == 0 {
				col[i] = 0 // saturated/unstable: plotted as a gap
				continue
			}
			col[i] = res.AvgLatencyNs
		}
		latencies[kind] = col
	}
	for i, rate := range rates {
		row := []float64{rate * 100}
		for _, kind := range design.Names {
			col, ok := latencies[kind]
			if !ok {
				row = append(row, 0)
				continue
			}
			row = append(row, col[i])
		}
		s.AddRow(row...)
	}
	return s, nil
}
