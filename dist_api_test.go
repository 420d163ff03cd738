package stringfigure_test

// Distributed-execution API tests: a loopback cluster with in-process
// ServeWorker goroutines stands in for a real multi-machine deployment.
// The headline property under test is the determinism contract — Sweep
// and Saturation on a cluster-attached network produce bit-identical
// Results to a bare network's in-process pool for a fixed seed, at any
// worker count — plus the in-process fallback and the emitter-leak fix.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	. "repro"
)

// startCluster brings up a loopback cluster with n embedded workers and
// blocks until all have joined.
func startCluster(t *testing.T, n, parallel int) *Cluster {
	t.Helper()
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			ServeWorker(ctx, c.Addr(), WorkerOptions{Parallel: parallel, DialRetry: 5 * time.Second})
		}()
	}
	t.Cleanup(func() {
		c.Close()
		cancel()
		for i := 0; i < n; i++ {
			<-done
		}
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := c.WaitForWorkers(wctx, n); err != nil {
		t.Fatalf("workers never joined: %v", err)
	}
	return c
}

// mustNew is New for tests: a build error fails the test.
func mustNew(t testing.TB, opts ...Option) *Network {
	t.Helper()
	net, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// distTestPoints mixes synthetic, trace, explicit-seed and in-process-only
// (FuncWorkload) points, so every dispatch path is exercised.
func distTestPoints(nodes int) []Point {
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.03, 0.06, 0.09, 0.12, 0.15, 0.18})
	points = append(points, Point{Workload: TraceWorkload{Workload: "grep"}})
	points = append(points, Point{Workload: SyntheticWorkload{Pattern: "tornado"}, Rate: 0.08, Seed: 4242})
	return append(points, ringPoint(nodes))
}

// ringPoint is a point only the coordinator can run: a FuncWorkload carries
// code, so it never travels to a worker.
func ringPoint(nodes int) Point {
	return Point{Workload: FuncWorkload{
		Label: "ring",
		Dest:  func(src int, rng *rand.Rand) (int, bool) { return (src + 1) % nodes, true },
	}, Rate: 0.05}
}

var distTestCfg = SessionConfig{Warmup: 300, Measure: 900,
	Ops: 300, Sockets: 2, Window: 8, MaxCycles: 10_000_000, Seed: 1}

// TestDistributedSweepBitIdentical is the acceptance test: a distributed
// sweep over loopback workers must reproduce the single-process Sweep
// bit for bit — same per-point seeds, same float64 metrics — at more
// than one worker count.
func TestDistributedSweepBitIdentical(t *testing.T) {
	const nodes = 32
	reference := mustNew(t, WithNodes(nodes), WithSeed(6))
	points := distTestPoints(nodes)
	want := reference.SweepAll(distTestCfg, points, 0)

	for _, workers := range []int{1, 2} {
		c := startCluster(t, workers, 2)
		net := mustNew(t, WithNodes(nodes), WithSeed(6), WithCluster(c))
		got := net.SweepAll(distTestCfg, points, 0)
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%d workers, point %d errored: local %v, distributed %v",
					workers, i, want[i].Err, got[i].Err)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%d workers, point %d differs:\nlocal:       %+v\ndistributed: %+v",
					workers, i, want[i], got[i])
			}
		}
		// The determinism contract rests on the published seed derivation.
		for i := range got {
			wantSeed := PointSeed(distTestCfg.Seed, i)
			if points[i].Seed != 0 {
				wantSeed = points[i].Seed
			}
			if got[i].Seed != wantSeed {
				t.Errorf("%d workers, point %d seed = %d, want %d", workers, i, got[i].Seed, wantSeed)
			}
		}
	}
}

func TestDistributedSweepGatedNetwork(t *testing.T) {
	// Workers rebuild gated networks from the snapshotted alive mask, so a
	// SetMounted network sweeps identically in both modes.
	const nodes = 32
	mask := make([]bool, nodes)
	for i := range mask {
		mask[i] = true
	}
	mask[3], mask[11], mask[26] = false, false, false

	reference := mustNew(t, WithNodes(nodes), WithSeed(9))
	if err := reference.SetMounted(mask); err != nil {
		t.Fatal(err)
	}
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.04, 0.08, 0.12})
	want := reference.SweepAll(distTestCfg, points, 0)

	c := startCluster(t, 2, 2)
	net := mustNew(t, WithNodes(nodes), WithSeed(9), WithCluster(c))
	if err := net.SetMounted(mask); err != nil {
		t.Fatal(err)
	}
	got := net.SweepAll(distTestCfg, points, 0)
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("gated point %d differs:\nlocal:       %+v\ndistributed: %+v", i, want[i], got[i])
		}
	}
}

func TestDistributedSaturationMatchesLocal(t *testing.T) {
	const nodes = 32
	reference := mustNew(t, WithNodes(nodes), WithSeed(2))
	scfg := SessionConfig{Warmup: 300, Measure: 900, Seed: 2}
	want, err := reference.Saturation(SyntheticWorkload{Pattern: "uniform"}, scfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}

	c := startCluster(t, 2, 2)
	net := mustNew(t, WithNodes(nodes), WithSeed(2), WithCluster(c))
	got, err := net.Saturation(SyntheticWorkload{Pattern: "uniform"}, scfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("distributed saturation = %v, local = %v (must be bit-identical)", got, want)
	}
}

func TestDistributedFallsBackWithoutWorkers(t *testing.T) {
	// A cluster with no workers (and no cluster at all) must degrade to
	// the in-process pool with identical results.
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	net := mustNew(t, WithNodes(16), WithSeed(3), WithCluster(c))
	bare := mustNew(t, WithNodes(16), WithSeed(3))
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.05, 0.1})
	cfg := SessionConfig{Warmup: 200, Measure: 600, Seed: 1}
	// A sweep stuck waiting for a worker ends at the deadline with errored
	// Results instead of hanging the test binary.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got := net.SweepAllContext(ctx, cfg, points, 0)
	want := bare.SweepAll(cfg, points, 0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workerless fallback differs:\n%+v\n%+v", got, want)
	}
}

// TestDistributedSweepSurvivesTotalWorkerLoss loses the only worker while
// it holds the first point and the other two wait: the cluster hands all
// three back and the sweep's own pool runs them, bit-identical to a sweep
// with no cluster at all.
func TestDistributedSweepSurvivesTotalWorkerLoss(t *testing.T) {
	const nodes = 32
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.04, 0.07, 0.1})
	// Long points: the first is still running when the kill, triggered by
	// its first snapshot, reaches the worker.
	cfg := SessionConfig{Warmup: 1000, Measure: 200000, Seed: 5}
	reference := mustNew(t, WithNodes(nodes), WithSeed(8))
	want := reference.SweepAll(cfg, points, 0)

	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- ServeWorker(ctx, c.Addr(), WorkerOptions{Parallel: 1, DialRetry: 5 * time.Second})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := c.WaitForWorkers(wctx, 1); err != nil {
		t.Fatalf("worker never joined: %v", err)
	}

	net := mustNew(t, WithNodes(nodes), WithSeed(8), WithCluster(c))
	var killed atomic.Bool
	kill := func(TelemetrySnapshot) {
		if killed.CompareAndSwap(false, true) {
			cancel()
		}
	}
	got := net.SweepAll(cfg.WithTelemetry(100, kill), points, 0)
	if !killed.Load() {
		t.Fatal("no snapshot arrived; the worker was never lost")
	}
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Errorf("ServeWorker after cancel = %v, want context.Canceled", err)
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("point %d errored after total worker loss: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d differs:\nlocal: %+v\ndist:  %+v", i, want[i], got[i])
		}
	}
}

func TestClusterClosedErrors(t *testing.T) {
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	err = c.WaitForWorkers(context.Background(), 1)
	if !errors.Is(err, ErrClusterClosed) {
		t.Errorf("WaitForWorkers after Close = %v, want ErrClusterClosed", err)
	}
}

func TestDistributedSweepContextCancel(t *testing.T) {
	c := startCluster(t, 1, 2)
	net := mustNew(t, WithNodes(32), WithSeed(1), WithCluster(c))
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.05, 0.1, 0.15, 0.2})
	// One point that cannot travel: it stays on the coordinator's pool and
	// must report the cancellation like the remote ones.
	points = append(points, ringPoint(32))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := net.SweepAllContext(ctx,
		SessionConfig{Warmup: 50_000, Measure: 50_000, Seed: 1}, points, 0)
	if len(res) != len(points) {
		t.Fatalf("canceled distributed sweep returned %d results, want %d", len(res), len(points))
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("point %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestSweepAbandonAfterCancelDoesNotLeak(t *testing.T) {
	// The documented emitter-goroutine leak: cancel a sweep, read nothing,
	// walk away. The buffered stream must let every sweep goroutine exit.
	net := mustNew(t, WithNodes(32), WithSeed(5))
	before := runtime.NumGoroutine()
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3})
	for k := 0; k < 5; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := net.SweepContext(ctx, SessionConfig{Warmup: 100_000, Measure: 100_000, Seed: 1}, points, 2)
		cancel()
		<-ch // consume one result, then abandon the stream
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	stacks := string(buf[:n])
	leaked := strings.Count(stacks, "SweepContext")
	t.Fatalf("goroutines did not settle: before=%d now=%d (%d stuck in SweepContext)\n%s",
		before, runtime.NumGoroutine(), leaked, stacks)
}

func TestDistributedSweepReportsProgress(t *testing.T) {
	// Long-running distributed sweeps must not go dark: the cluster keeps
	// each worker's progress from its own dispatch records, updated before
	// each point's outcome is delivered. The sweep is a plain SweepAll, so
	// this is also the witness that the one front door dispatches to the
	// attached cluster.
	c := startCluster(t, 2, 2)
	net := mustNew(t, WithNodes(32), WithSeed(6), WithCluster(c))
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17})
	cfg := SessionConfig{Warmup: 200, Measure: 600, Seed: 1}
	for _, r := range net.SweepAll(cfg, points, 0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Every point ran remotely (both workers stayed connected), so right
	// after the sweep the per-worker completion counters sum to the point
	// count and nothing is in flight.
	ps := c.Progress()
	var total int64
	active := 0
	for _, p := range ps {
		total += p.Completed
		active += p.Active
		if p.Capacity != 2 || (p.Completed > 0 && p.LastReport.IsZero()) {
			t.Errorf("worker %d: want capacity 2 and a LastReport once it completed points: %+v", p.Worker, p)
		}
	}
	if len(ps) != 2 || total != int64(len(points)) || active != 0 {
		t.Fatalf("cluster progress after the sweep: %+v", ps)
	}
}

// TestTraceGatedWorkerInvariance runs the same scenario-scheduled sweep —
// one open-loop synthetic point and one closed-loop trace point, both
// under a churn-trace gate schedule — locally and over loopback clusters
// of one and two workers. The distributed results must equal the local
// ones exactly: the scenario rides the wire inside the session config and
// recompiles identically on every worker's rebuilt network.
func TestTraceGatedWorkerInvariance(t *testing.T) {
	const nodes = 16
	cfg := SessionConfig{Warmup: 300, Measure: 900, Ops: 300, Sockets: 2,
		Window: 8, MaxCycles: 10_000_000, Seed: 1,
		Scenario: []ScenarioSpec{ChurnTrace(
			GateEvent{Cycle: 400, Node: 8, On: false},
			GateEvent{Cycle: 400, Node: 9, On: false})}}
	points := []Point{
		{Workload: SyntheticWorkload{Pattern: "uniform"}, Rate: 0.06},
		{Workload: TraceWorkload{Workload: "grep"}},
	}
	reference := mustNew(t, WithNodes(nodes), WithSeed(6))
	want := reference.SweepAll(cfg, points, 0)
	for i, r := range want {
		if r.Err != nil {
			t.Fatalf("local point %d errored: %v", i, r.Err)
		}
	}
	for _, workers := range []int{1, 2} {
		c := startCluster(t, workers, 2)
		net := mustNew(t, WithNodes(nodes), WithSeed(6), WithCluster(c))
		got := net.SweepAll(cfg, points, 0)
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%d workers, point %d differs:\nlocal:       %+v\ndistributed: %+v",
					workers, i, want[i], got[i])
			}
		}
	}
}
