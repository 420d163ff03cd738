package stringfigure

// Regression tests for the sweep/saturation correctness pass: the rate a
// point effectively runs at is authoritative in every streamed Result, and
// an empty measurement window (no injections) is never mistaken for
// saturation. Internal test package: saturatedAt and saturationSearch (with
// its explicit wave width) are deliberately unexported.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSaturatedAtRequiresInjections(t *testing.T) {
	// An empty window — nothing offered, nothing delivered — is not a
	// saturated network (pre-fix this returned true and truncated every
	// low-rate bracketing search at rate 0).
	if saturatedAt(Result{Injected: 0, Delivered: 0}) {
		t.Error("empty window (no injections) treated as saturation")
	}
	if !saturatedAt(Result{Injected: 10, Delivered: 0}) {
		t.Error("zero deliveries under offered load must saturate")
	}
	if !saturatedAt(Result{Deadlocked: true}) {
		t.Error("deadlock must saturate")
	}
	if !saturatedAt(Result{Injected: 100, Delivered: 60, AvgLatencyNs: 1}) {
		t.Error("delivered fraction below satMinDelivered must saturate")
	}
	if saturatedAt(Result{Injected: 100, Delivered: 99, AvgLatencyNs: 1}) {
		t.Error("healthy point reported as saturated")
	}
}

func TestSaturationSurvivesTinyMeasureWindow(t *testing.T) {
	// A 1-cycle measurement window can never deliver a packet (one link
	// alone takes 2 cycles) and at low rates often injects nothing either.
	// The bracketing search must march past the empty windows instead of
	// declaring saturation at rate 0.
	net := mustNew(t, WithNodes(16), WithSeed(2))
	cfg := SessionConfig{Warmup: 50, Measure: 1, Seed: 1}
	sat, err := net.Saturation(SyntheticWorkload{Pattern: "uniform"}, cfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 {
		t.Errorf("saturation = %v with a 1-cycle window, want > 0 (empty windows are not saturation)", sat)
	}
}

// countingWorkload is uniform synthetic traffic that counts the sessions
// it runs in.
type countingWorkload struct{ runs *atomic.Int64 }

func (w countingWorkload) Name() string { return "counting" }

func (w countingWorkload) run(ctx context.Context, s *Session) (Result, error) {
	w.runs.Add(1)
	return SyntheticWorkload{Pattern: "uniform"}.run(ctx, s)
}

// TestSaturationStepValidation pins the search's step contract: a step
// above satMaxRate, NaN or an infinity is an error returned before any
// candidate runs (it used to read as "saturates at 0%"), a step of exactly
// satMaxRate runs its one candidate, and step <= 0 means 0.05.
func TestSaturationStepValidation(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(1))
	cfg := SessionConfig{Warmup: 100, Measure: 300, Seed: 1}
	var runs atomic.Int64
	w := countingWorkload{&runs}
	for _, step := range []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		sat, err := net.Saturation(w, cfg, step)
		if err == nil || sat != 0 {
			t.Errorf("step %v: Saturation = %v, %v; want 0 and an error", step, sat, err)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("rejected steps ran %d sessions, want 0", n)
	}
	if _, err := net.Saturation(w, cfg, satMaxRate); err != nil {
		t.Errorf("step %v: %v", satMaxRate, err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("step %v ran %d sessions, want 1", satMaxRate, n)
	}
	want, err := net.Saturation(w, cfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []float64{0, -0.5} {
		if got, err := net.Saturation(w, cfg, step); err != nil || got != want {
			t.Errorf("step %v: Saturation = %v, %v; want step 0.05's %v", step, got, err, want)
		}
	}
}

// TestSaturationWorkerInvariance runs the bracketing search at wave widths
// 1 and 3. Candidate rate step*(i+1) must run with PointSeed(cfg.Seed, i)
// whichever wave it lands in — read off each candidate's telemetry stamps —
// so the saturation rate is bit-identical at any width.
func TestSaturationWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const step, seed = 0.1, 5
	for _, kind := range []string{"sf", "dm"} {
		net := mustNew(t, WithDesign(kind), WithNodes(16), WithSeed(1))
		var got []float64
		for _, width := range []int{1, 3} {
			var mu sync.Mutex
			seeds := make([]int64, int(satMaxRate/step))
			cfg := SessionConfig{Warmup: 400, Measure: 1000, Seed: seed}.WithTelemetry(700, func(s TelemetrySnapshot) {
				mu.Lock()
				seeds[int(math.Round(s.Rate/step))-1] = s.Seed
				mu.Unlock()
			})
			sat, err := net.saturationSearch(context.Background(), SyntheticWorkload{Pattern: "uniform"}, cfg, step, width)
			if err != nil {
				t.Fatal(err)
			}
			if sat <= 0 || sat > 1 {
				t.Errorf("%s saturation = %v at wave width %d", kind, sat, width)
			}
			// Every candidate up to the first failing one ran.
			for i, s := range seeds[:min(int(math.Round(sat/step))+1, len(seeds))] {
				if want := PointSeed(seed, i); s != want {
					t.Errorf("%s width %d: candidate %d ran with seed %d, want PointSeed(%d, %d) = %d",
						kind, width, i, s, seed, i, want)
				}
			}
			got = append(got, sat)
		}
		if got[0] != got[1] {
			t.Errorf("%s saturation differs across wave widths: %v vs %v", kind, got[0], got[1])
		}
	}
}

func TestSweepPointRateAuthoritative(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(1))
	cfg := SessionConfig{Rate: 0.25, Warmup: 100, Measure: 300, Seed: 1}

	// Success path: a Point{Rate: 0} inherits the sweep's base rate, and
	// its Result is bit-identical to spelling the rate out on the point.
	inherit := net.SweepAll(cfg, []Point{{Workload: SyntheticWorkload{Pattern: "uniform"}}}, 1)
	explicit := net.SweepAll(cfg, []Point{{Workload: SyntheticWorkload{Pattern: "uniform"}, Rate: 0.25}}, 1)
	if inherit[0].Err != nil || explicit[0].Err != nil {
		t.Fatalf("points errored: %v / %v", inherit[0].Err, explicit[0].Err)
	}
	if !reflect.DeepEqual(inherit, explicit) {
		t.Errorf("Point{Rate: 0} differs from explicit cfg rate:\ninherit:  %+v\nexplicit: %+v",
			inherit[0], explicit[0])
	}
	if inherit[0].Rate != 0.25 {
		t.Errorf("inherited rate reported as %v, want 0.25", inherit[0].Rate)
	}

	// Error path: a failing point identifies itself at the rate it would
	// have run, not at the possibly-zero Point.Rate.
	bad := net.SweepAll(cfg, []Point{{Workload: SyntheticWorkload{Pattern: "bogus"}}}, 1)
	if bad[0].Err == nil {
		t.Fatal("bogus pattern did not error")
	}
	if bad[0].Rate != 0.25 {
		t.Errorf("errored point rate = %v, want effective 0.25", bad[0].Rate)
	}

	// Cancellation path: undispatched and aborted points alike report the
	// effective rate; closed-loop trace points keep reporting 0 (matching
	// their successful runs).
	points := []Point{
		{Workload: SyntheticWorkload{Pattern: "uniform"}},
		{Workload: SyntheticWorkload{Pattern: "uniform"}, Rate: 0.4},
		{Workload: TraceWorkload{Workload: "grep"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := net.SweepAllContext(ctx, cfg, points, 2)
	if len(res) != len(points) {
		t.Fatalf("results = %d, want %d", len(res), len(points))
	}
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("point %d of canceled sweep did not error: %+v", i, r)
		}
	}
	if res[0].Rate != 0.25 {
		t.Errorf("canceled inherit-rate point reports %v, want 0.25", res[0].Rate)
	}
	if res[1].Rate != 0.4 {
		t.Errorf("canceled explicit-rate point reports %v, want 0.4", res[1].Rate)
	}
	if res[2].Rate != 0 {
		t.Errorf("canceled trace point reports rate %v, want 0", res[2].Rate)
	}
}

// TestSweepRunsPointsConcurrently pins the worker pool without timing:
// each of four points blocks in its first Dest call until all four sessions
// have entered one, which only a pool running the four points at once can
// satisfy. A serialized pool fails at the deadline instead of hanging.
func TestSweepRunsPointsConcurrently(t *testing.T) {
	const workers = 4
	net := mustNew(t, WithNodes(16), WithSeed(1))
	var entered sync.WaitGroup
	entered.Add(workers)
	all := make(chan struct{})
	go func() { entered.Wait(); close(all) }()
	expired := make(chan struct{})
	deadline := time.AfterFunc(30*time.Second, func() { close(expired) })
	defer deadline.Stop()
	var serialized atomic.Bool
	points := make([]Point, workers)
	for i := range points {
		var first sync.Once
		points[i] = Point{Rate: 0.05, Workload: FuncWorkload{Dest: func(src int, _ *rand.Rand) (int, bool) {
			first.Do(func() {
				entered.Done()
				select {
				case <-all:
				case <-expired:
					serialized.Store(true)
				}
			})
			return (src + 1) % 16, true
		}}}
	}
	for res := range net.Sweep(SessionConfig{Warmup: 10, Measure: 50, Seed: 1}, points, workers) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if serialized.Load() {
		t.Fatalf("Sweep with %d workers never had its %d points in flight at once", workers, workers)
	}
}
