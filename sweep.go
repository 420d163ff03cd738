package stringfigure

import (
	"context"
	"fmt"
	"runtime"
)

// Point is one sweep coordinate: a workload at an injection rate. Rate is
// ignored by closed-loop (trace-driven) workloads; use 0 there. On open-loop
// workloads, Rate <= 0 inherits the sweep config's rate (falling back to the
// session default of 0.1) — a true near-zero run needs an explicit tiny
// positive rate. Whatever rate the point effectively runs at is the rate its
// streamed Result reports, on success, error and cancellation alike.
type Point struct {
	Workload Workload
	Rate     float64
	// Seed, when nonzero, overrides the derived per-point session seed
	// (PointSeed of the sweep's base seed and the point index). Explicit
	// seeds let a sweep fan out runs that must reproduce standalone
	// sessions exactly — e.g. the Figure 12 workload grid — while keeping
	// worker-count invariance: the seed is part of the point, not of the
	// schedule.
	Seed int64
}

// RateSweep builds sweep points for one workload across injection rates —
// the Figure 11 latency-curve shape.
func RateSweep(w Workload, rates []float64) []Point {
	pts := make([]Point, len(rates))
	for i, r := range rates {
		pts[i] = Point{Workload: w, Rate: r}
	}
	return pts
}

// Sweep fans the points out and streams one Result per point, in point
// order, over the returned channel. Each point runs in its own Session with
// a seed derived deterministically from cfg.Seed and the point index, so
// results are bit-identical regardless of where or in what order points
// run. A point that fails yields a Result whose Err field is set (and whose
// Workload/Rate still identify the point). The stream buffers one Result
// per point, so abandoning it mid-stream wastes no goroutine — the sweep
// always drains and exits on its own.
//
// Where points run is the network's decision: with a cluster attached
// (WithCluster) and workers connected, every point that can travel shards
// across the remote workers; the rest — FuncWorkload points, everything
// while no worker is connected, and the points still unfinished when the
// last worker is lost — run on an in-process pool of workers goroutines
// (workers <= 0 uses GOMAXPROCS).
//
// Each point runs on the network epoch current when the point starts, so a
// sweep — gated points included — runs fully in parallel with itself and
// with other sweeps; a reconfiguration issued while a sweep is draining
// waits for no point and reaches only the points that start after it.
func (n *Network) Sweep(cfg SessionConfig, points []Point, workers int) <-chan Result {
	return n.SweepContext(context.Background(), cfg, points, workers)
}

// SweepContext is Sweep with cooperative cancellation: once ctx is
// canceled, in-flight points abort at their next cycle chunk (remote
// workers abort theirs too) and undispatched points are emitted immediately
// with Err set to ctx.Err(), so the stream still delivers exactly one
// Result per point.
func (n *Network) SweepContext(ctx context.Context, cfg SessionConfig, points []Point, workers int) <-chan Result {
	// The one sweep executor: a result slot per point, the cluster leg
	// (dispatchRemote) for the points that can travel, a worker pool for
	// the ones it hands back, and an emitter that streams the slots in
	// order.
	//
	// out is buffered one slot per point: the emitter below can always
	// finish even if the consumer abandons the stream after cancellation,
	// so a half-read sweep cannot strand the emitter goroutine.
	out := make(chan Result, len(points))
	slots := make([]chan Result, len(points))
	for i := range slots {
		slots[i] = make(chan Result, 1)
	}
	local := n.dispatchRemote(ctx, cfg, points, slots)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make(chan int)
	for w := 0; w < min(workers, len(points)); w++ {
		go func() {
			for i := range jobs {
				slots[i] <- n.runPoint(ctx, cfg, points[i], i)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range local {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// The point never dispatched; emit its cancellation result
				// directly so the ordered stream stays complete.
				slots[i] <- n.errResult(cfg, points[i], i, ctx.Err())
			}
		}
	}()
	// Emit in point order as results land; a slow early point buffers at
	// most one result per later point (slots are 1-deep).
	go func() {
		defer close(out)
		for i := range points {
			out <- <-slots[i]
		}
	}()
	return out
}

// runPoint executes one sweep point (global index i): derive the per-point
// seed, apply the point's rate, run one session. The in-process pool and
// remote workers (ServeWorker) call the same function, which is what makes
// a point's Result independent of where it ran.
func (n *Network) runPoint(ctx context.Context, cfg SessionConfig, p Point, i int) Result {
	pc := cfg
	pc.Seed = pointSeedOf(cfg, p, i)
	pc.Rate = pointRateOf(cfg, p)
	if pc.onTelemetry != nil {
		// Stamp the point index onto the streamed snapshots so consumers
		// can demultiplex a sweep's concurrent telemetry.
		inner := pc.onTelemetry
		pc.onTelemetry = func(t TelemetrySnapshot) {
			t.Point = i
			inner(t)
		}
	}
	if p.Workload == nil {
		return n.errResult(cfg, p, i, fmt.Errorf("stringfigure: sweep point %d has no workload", i))
	}
	res, err := n.NewSession(pc).RunContext(ctx, p.Workload)
	if err != nil {
		res = n.errResult(cfg, p, i, err)
	}
	return res
}

// pointSeedOf is the session seed point p draws at index i: its explicit
// override if set, the PointSeed derivation otherwise.
func pointSeedOf(cfg SessionConfig, p Point, i int) int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return PointSeed(cfg.Seed, i)
}

// pointRateOf resolves the injection rate point p effectively runs at: its
// own when positive, otherwise the sweep config's (with the session default
// as the final fallback). This single derivation feeds the session AND every
// Result identity — success, error and cancellation — so a Point{Rate: 0}
// can no longer run at one rate while reporting another. Closed-loop trace
// points report rate 0 (see reportedRate).
func pointRateOf(cfg SessionConfig, p Point) float64 {
	if p.Rate > 0 {
		return p.Rate
	}
	cfg.fill()
	return cfg.Rate
}

// reportedRate is the rate a point's Result identifies itself with: the
// effective rate for open-loop workloads, 0 for closed-loop trace replays
// (matching what a successful run reports).
func reportedRate(cfg SessionConfig, p Point) float64 {
	if _, closedLoop := p.Workload.(TraceWorkload); closedLoop {
		return 0
	}
	return pointRateOf(cfg, p)
}

// SweepAll runs Sweep and collects the streamed results into a slice,
// indexed like points.
func (n *Network) SweepAll(cfg SessionConfig, points []Point, workers int) []Result {
	return n.SweepAllContext(context.Background(), cfg, points, workers)
}

// SweepAllContext is SweepAll with cooperative cancellation.
func (n *Network) SweepAllContext(ctx context.Context, cfg SessionConfig, points []Point, workers int) []Result {
	results := make([]Result, 0, len(points))
	for r := range n.SweepContext(ctx, cfg, points, workers) {
		results = append(results, r)
	}
	return results
}

// PointSeed derives the deterministic per-point session seed Sweep assigns
// to point i under base seed. Exposed so serial reference loops can
// reproduce a sweep exactly.
func PointSeed(base int64, i int) int64 {
	return base + int64(i+1)*1_000_003
}
