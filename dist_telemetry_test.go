package stringfigure_test

// Cluster-telemetry tests: a distributed sweep with a telemetry sink must
// deliver every point's interval snapshots to the caller — remote points
// forwarded over the wire as batched snapshot frames, local points fed
// directly — merged into one stream that is ordered per point, without
// perturbing the Results (bit-identical to an in-process sweep with no
// telemetry at all), and surviving worker loss by re-emitting the
// requeued point's stream from the beginning.

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	. "repro"
)

// collectSink gathers a sweep's concurrent telemetry stream grouped by
// point index, preserving per-point arrival order.
type collectSink struct {
	mu      sync.Mutex
	byPoint map[int][]TelemetrySnapshot
}

func newCollectSink() *collectSink {
	return &collectSink{byPoint: make(map[int][]TelemetrySnapshot)}
}

func (c *collectSink) observe(t TelemetrySnapshot) {
	c.mu.Lock()
	c.byPoint[t.Point] = append(c.byPoint[t.Point], t)
	c.mu.Unlock()
}

func (c *collectSink) snaps(point int) []TelemetrySnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TelemetrySnapshot(nil), c.byPoint[point]...)
}

// TestDistributedSweepForwardsTelemetry is the tentpole acceptance test:
// a telemetry-enabled sweep over a 2-worker loopback cluster delivers
// every point's interval snapshots to the caller's sink — including the
// FuncWorkload point that can only run locally — ordered per point,
// correctly stamped and equal to the stream the same sweep emits
// in-process, while the final Results stay bit-identical to the same
// sweep run in-process without telemetry.
func TestDistributedSweepForwardsTelemetry(t *testing.T) {
	const nodes = 32
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.04, 0.08, 0.12, 0.16})
	points = append(points, Point{Workload: SyntheticWorkload{Pattern: "tornado"}, Rate: 0.06, Seed: 777})
	points = append(points, Point{Workload: FuncWorkload{
		Label: "ring",
		Dest:  func(src int, rng *rand.Rand) (int, bool) { return (src + 1) % nodes, true },
	}, Rate: 0.05})
	cfg := SessionConfig{Warmup: 400, Measure: 1600, Seed: 9}

	reference := mustNew(t, WithNodes(nodes), WithSeed(2))
	want := reference.SweepAll(cfg, points, 0) // no telemetry, in-process
	local := newCollectSink()
	reference.SweepAll(cfg.WithTelemetry(200, local.observe), points, 0)

	c := startCluster(t, 2, 2)
	net := mustNew(t, WithNodes(nodes), WithSeed(2), WithCluster(c))
	sink := newCollectSink()
	got := net.SweepAll(cfg.WithTelemetry(200, sink.observe), points, 0)

	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errored: local %v, distributed %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("telemetry-on distributed point %d differs from telemetry-off local:\nlocal: %+v\ndist:  %+v",
				i, want[i], got[i])
		}
	}
	for i, p := range points {
		snaps := sink.snaps(i)
		if len(snaps) == 0 {
			t.Errorf("point %d (%s): no snapshots forwarded", i, p.Workload.Name())
			continue
		}
		// Content: the forwarded stream is the in-process stream, record
		// for record.
		if ls := local.snaps(i); !reflect.DeepEqual(snaps, ls) {
			t.Errorf("point %d (%s): %d forwarded snapshots differ from the %d an in-process sweep emits",
				i, p.Workload.Name(), len(snaps), len(ls))
		}
		// Ordered per point: cycles strictly increase within one attempt.
		for k := 1; k < len(snaps); k++ {
			if snaps[k].Cycle <= snaps[k-1].Cycle {
				t.Errorf("point %d snapshots out of order: cycle %d after %d",
					i, snaps[k].Cycle, snaps[k-1].Cycle)
				break
			}
		}
		// Stamping: workload name, point index and the derived seed
		// survive the wire exactly as the in-process stream stamps them.
		wantSeed := PointSeed(cfg.Seed, i)
		if p.Seed != 0 {
			wantSeed = p.Seed
		}
		for _, s := range snaps {
			if s.Workload != p.Workload.Name() || s.Point != i || s.Seed != wantSeed {
				t.Errorf("point %d snapshot stamped %q/point=%d/seed=%d, want %q/%d/%d",
					i, s.Workload, s.Point, s.Seed, p.Workload.Name(), i, wantSeed)
				break
			}
		}
	}
}

// TestDistributedTelemetryWorkerLoss kills a worker mid-sweep: its
// in-flight point is requeued onto the survivor and its snapshot stream
// restarts from the first interval (the rerun starts at cycle 0), while
// the final Results still match the in-process reference bit for bit.
func TestDistributedTelemetryWorkerLoss(t *testing.T) {
	const nodes = 32
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.05, 0.08})
	// Long points (~0.2 s each): worker A's must still be running when the
	// kill, triggered by the first snapshots, reaches it.
	cfg := SessionConfig{Warmup: 1000, Measure: 300000, Seed: 3}

	reference := mustNew(t, WithNodes(nodes), WithSeed(4))
	want := reference.SweepAll(cfg, points, 0)

	// Two capacity-1 workers: each takes one point. Worker A dies once
	// snapshots from both points have arrived, so whichever point it was
	// running is requeued mid-stream onto worker B.
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	served := make(chan struct{}, 2)
	go func() {
		defer func() { served <- struct{}{} }()
		ServeWorker(ctxA, c.Addr(), WorkerOptions{Parallel: 1, DialRetry: 5 * time.Second})
	}()
	go func() {
		defer func() { served <- struct{}{} }()
		ServeWorker(ctxB, c.Addr(), WorkerOptions{Parallel: 1, DialRetry: 5 * time.Second})
	}()
	defer func() {
		cancelA()
		cancelB()
		c.Close()
		<-served
		<-served
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := c.WaitForWorkers(wctx, 2); err != nil {
		t.Fatalf("workers never joined: %v", err)
	}

	net := mustNew(t, WithNodes(nodes), WithSeed(4), WithCluster(c))
	sink := newCollectSink()
	var killOnce sync.Once
	kill := func(t TelemetrySnapshot) {
		sink.observe(t)
		sink.mu.Lock()
		both := len(sink.byPoint) == 2
		sink.mu.Unlock()
		if both {
			killOnce.Do(cancelA)
		}
	}
	got := net.SweepAll(cfg.WithTelemetry(100, kill), points, 0)

	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("point %d errored after worker loss: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d differs after requeue:\nlocal: %+v\ndist:  %+v", i, want[i], got[i])
		}
	}
	// The requeued point's stream restarted: somewhere in its snapshot
	// sequence the cycle counter went backwards to the first interval.
	restarted := false
	for i := range points {
		snaps := sink.snaps(i)
		for k := 1; k < len(snaps); k++ {
			if snaps[k].Cycle <= snaps[k-1].Cycle {
				restarted = true
				if snaps[k].Cycle > 2*100 {
					t.Errorf("point %d re-emitted from cycle %d, want the first interval again",
						i, snaps[k].Cycle)
				}
			}
		}
	}
	if !restarted {
		t.Error("no point's snapshot stream restarted after the worker loss")
	}
}
