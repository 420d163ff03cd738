package stringfigure

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
)

// dispatchRemote is the cluster leg of a sweep: it encodes the points that
// can travel, hands them to the attached cluster's workers and streams each
// outcome into its slot as it completes. Every point that stays local comes
// out of the returned channel, which closes once no more can: the points
// that cannot travel, every point when no cluster is attached or no worker
// is connected (ErrNoWorkers), and each point handed back because its
// workers were all lost mid-sweep. The sweep's pool runs those; it is the
// one in-process executor.
//
// Each worker rebuilds this network from its serialized spec and runs the
// point through runPoint with the same PointSeed-derived session seed as
// the in-process pool, so remote Results are bit-identical to local ones.
// Points whose workloads cannot be serialized (FuncWorkload) stay local. Points in flight on a worker that
// disconnects are requeued onto surviving workers; a point repeatedly lost
// this way fails with ErrWorkerLost in its Result, and points orphaned by
// Cluster.Close fail with ErrClusterClosed.
func (n *Network) dispatchRemote(ctx context.Context, cfg SessionConfig, points []Point, slots []chan Result) <-chan int {
	local := make(chan int, len(points))
	c := n.cluster
	if c == nil {
		for i := range points {
			local <- i
		}
		close(local)
		return local
	}
	spec := n.spec()

	// Partition: serializable points go remote; the rest stay local. A
	// telemetry sink cannot travel, so remote jobs carry a flag asking the
	// worker to stream its interval snapshots back instead; local points
	// reach the sink directly through runPoint. Either way the caller sees
	// one merged stream on cfg's sink, each snapshot stamped with its
	// point index, in per-point emission order.
	telemetry := cfg.onTelemetry != nil
	var remoteIdx []int
	var payloads [][]byte
	for i, p := range points {
		wp, ok := pointToWire(p)
		if !ok {
			local <- i
			continue
		}
		b, err := encodeWire(wireJob{Spec: spec, Cfg: cfg, Index: i, Point: wp, Telemetry: telemetry})
		if err != nil {
			local <- i
			continue
		}
		remoteIdx = append(remoteIdx, i)
		payloads = append(payloads, b)
	}

	// Remote points stream back in completion order; slots reorder them.
	go func() {
		defer close(local)
		// Forwarded snapshot batches unpack straight into the sweep's sink.
		// The records were stamped (workload, seed, point index) by the
		// worker's session layer — runPoint runs the same stamping code
		// remotely — so nothing needs to be reconstructed here.
		var onSnapshot func(id int, payload []byte)
		if telemetry {
			sink := cfg.onTelemetry
			onSnapshot = func(id int, payload []byte) {
				var batch wireSnapshotBatch
				if err := decodeWire(payload, &batch); err != nil {
					return
				}
				for _, t := range batch.Snaps {
					sink(t)
				}
			}
		}
		outcomes, err := c.co.Run(ctx, payloads, onSnapshot)
		if err != nil {
			// Refused whole (no worker connected, or the cluster closed):
			// every point settles with that error.
			refused := make(chan dist.Outcome, len(payloads))
			for id := range payloads {
				refused <- dist.Outcome{ID: id, Err: err}
			}
			close(refused)
			outcomes = refused
		}
		for o := range outcomes {
			i := remoteIdx[o.ID]
			if errors.Is(o.Err, dist.ErrNoWorkers) {
				local <- i
				continue
			}
			slots[i] <- n.outcomeResult(o, cfg, points[i], i)
		}
	}()
	return local
}

// SweepDistributedAll is SweepAll(cfg, points, 0).
//
// Deprecated: use SweepAll; every sweep runs on the attached cluster.
func (n *Network) SweepDistributedAll(cfg SessionConfig, points []Point) []Result {
	return n.SweepAll(cfg, points, 0)
}

// errResult shapes a point's failure Result exactly like a successful run
// would identify itself: workload name, the rate the point effectively runs
// at (not the possibly-zero Point.Rate), and the derived per-point seed.
func (n *Network) errResult(cfg SessionConfig, p Point, i int, err error) Result {
	res := Result{Seed: pointSeedOf(cfg, p, i), Err: err}
	if p.Workload != nil {
		res.Workload = p.Workload.Name()
		res.Rate = reportedRate(cfg, p)
	}
	return res
}

// outcomeResult converts one transport outcome into the point's Result.
func (n *Network) outcomeResult(o dist.Outcome, cfg SessionConfig, p Point, i int) Result {
	if o.Err != nil {
		return n.errResult(cfg, p, i, mapClusterErr(o.Err))
	}
	var wr wireResult
	if err := decodeWire(o.Payload, &wr); err != nil {
		return n.errResult(cfg, p, i, fmt.Errorf("stringfigure: decode remote result: %w", err))
	}
	return wr.result()
}

// mapClusterErr lifts transport sentinels into the public error surface.
func mapClusterErr(err error) error {
	switch {
	case errors.Is(err, dist.ErrWorkerLost):
		return fmt.Errorf("%w: %v", ErrWorkerLost, err)
	case errors.Is(err, dist.ErrClosed):
		return fmt.Errorf("%w: %v", ErrClusterClosed, err)
	}
	return err
}
