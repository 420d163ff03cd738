package stringfigure

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/netsim"
)

// The saturation criteria (Figure 10's metric): a candidate rate is
// saturated once mean packet latency exceeds satLatencyCapNs or the
// delivered fraction of the measured window drops below satMinDelivered.
// The search offers at most satMaxRate packets/router/cycle.
const (
	satLatencyCapNs = 400 * netsim.CycleNs
	satMinDelivered = 0.75
	satMaxRate      = 1.0
)

// Saturation finds the highest injection rate the network sustains under
// the workload: mean latency under the cap, no deadlock, and deliveries
// tracking injections. Candidate rates step * 1, step * 2, ... (step <= 0
// uses 0.05; a step above 1, NaN or an infinity is an error) fan out
// through Sweep in waves — a parallel bracketing of the saturation point.
// A wave is GOMAXPROCS candidates wide, or the attached cluster's total
// slot capacity when that is larger.
func (n *Network) Saturation(w Workload, cfg SessionConfig, step float64) (float64, error) {
	return n.SaturationContext(context.Background(), w, cfg, step)
}

// SaturationContext is Saturation with cooperative cancellation.
//
// Determinism: candidate rate i (1-based) is step*i and runs with
// PointSeed(cfg.Seed, i-1), independent of wave boundaries, worker count or
// scheduling; the search returns step*(f-1) where f is the lowest failing
// rate index. Both are invariant across wave widths, so a fixed seed yields
// bit-identical saturation rates with or without a cluster.
func (n *Network) SaturationContext(ctx context.Context, w Workload, cfg SessionConfig, step float64) (float64, error) {
	width := runtime.GOMAXPROCS(0)
	if n.cluster != nil {
		width = max(width, n.cluster.Capacity())
	}
	return n.saturationSearch(ctx, w, cfg, step, width)
}

// saturationSearch is the bracketing search behind SaturationContext, with
// width candidate rates per wave.
func (n *Network) saturationSearch(ctx context.Context, w Workload, cfg SessionConfig, step float64, width int) (float64, error) {
	if math.IsNaN(step) || math.IsInf(step, 0) || step > satMaxRate {
		return 0, fmt.Errorf("stringfigure: saturation step %v is not a rate step: want a finite step at most %v (step <= 0 uses 0.05)", step, satMaxRate)
	}
	if step <= 0 {
		step = 0.05
	}
	cfg.fill()
	steps := int(satMaxRate/step + 1e-9)
	sat := 0.0
	for g := 0; g < steps; g += width {
		hi := min(g+width, steps)
		rates := make([]float64, 0, hi-g)
		for i := g; i < hi; i++ {
			rates = append(rates, step*float64(i+1))
		}
		// Shift the wave's base seed so local point j draws the seed of
		// global rate index g+j: PointSeed is affine in its base, so base
		// PointSeed(cfg.Seed, g-1) gives PointSeed(cfg.Seed, g+j) exactly.
		wc := cfg
		wc.Seed = PointSeed(cfg.Seed, g-1)
		for _, res := range n.SweepAllContext(ctx, wc, RateSweep(w, rates), 0) {
			if res.Err != nil {
				return 0, res.Err
			}
			if saturatedAt(res) {
				return sat, nil
			}
			sat = res.Rate
		}
	}
	return sat, nil
}

// saturatedAt reports whether one measured point failed the sustained-rate
// criteria. Zero deliveries only indicate saturation when packets were
// actually offered: a measurement window too short for any injection at a
// very low rate is an empty sample, not a saturated network (treating it as
// one would truncate the bracketing search at rate 0).
func saturatedAt(res Result) bool {
	if res.Deadlocked {
		return true
	}
	if res.Injected > 0 && res.Delivered == 0 {
		return true
	}
	if res.AvgLatencyNs > satLatencyCapNs {
		return true
	}
	// Compare deliveries against the steady-state offered load.
	return res.Injected > 0 &&
		float64(res.Delivered)/float64(res.Injected) < satMinDelivered
}
