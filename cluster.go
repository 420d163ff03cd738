package stringfigure

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
)

// Cluster is the coordinator side of distributed sweep execution: it
// listens for sfworker processes (cmd/sfworker, or ServeWorker embedded
// elsewhere) and shards sweep points over them. Attach one to a network
// with WithCluster and that network's Sweep and Saturation run on it. The
// cluster only transports: points no worker can take — all of them while
// none is connected, the unfinished rest once the last one is lost — go
// back to the sweep's in-process pool, so a cluster is always safe to
// attach.
//
// One cluster serves many networks and many concurrent sweeps. Workers
// may join and leave at any time: joining workers pick up pending points
// immediately, and points in flight on a lost worker are requeued onto
// the survivors (after repeated losses a point fails with ErrWorkerLost
// in its Result). Determinism is unaffected by membership: per-point
// seeds derive from the sweep's base seed and point index exactly as in
// the in-process pool, so distributed results are bit-identical to local
// ones for a fixed seed, at any worker count.
type Cluster struct {
	co *dist.Coordinator
}

// ClusterOption configures NewCluster.
type ClusterOption func(*dist.Config)

// ClusterToken requires workers to present this shared secret when they
// connect: a worker whose hello carries a different (or missing) token is
// rejected before registration with a goodbye naming the refusal, and its
// ServeWorker returns ErrUnauthorized. Pair it with
// WorkerOptions.Token / `sfworker -token`.
func ClusterToken(token string) ClusterOption {
	return func(c *dist.Config) { c.Token = token }
}

// ClusterLogger routes the coordinator's operational log lines — worker
// joins and losses, auth rejections, point requeues — to logf (Printf
// signature; sfserve adapts its slog logger). nil keeps the coordinator
// silent. logf is called from connection goroutines and must be safe for
// concurrent use.
func ClusterLogger(logf func(format string, args ...any)) ClusterOption {
	return func(c *dist.Config) { c.Logf = logf }
}

// NewCluster starts a coordinator listening on addr ("host:port"; use
// ":0" to pick a free port, then read Addr).
func NewCluster(addr string, opts ...ClusterOption) (*Cluster, error) {
	var cfg dist.Config
	for _, o := range opts {
		o(&cfg)
	}
	co, err := dist.Listen(addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("stringfigure: cluster listen: %w", err)
	}
	return &Cluster{co: co}, nil
}

// Addr returns the address workers dial.
func (c *Cluster) Addr() string { return c.co.Addr() }

// Workers returns the number of connected workers.
func (c *Cluster) Workers() int { return c.co.Workers() }

// Capacity returns the total concurrent-session slots across workers.
func (c *Cluster) Capacity() int { return c.co.Capacity() }

// WaitForWorkers blocks until at least n workers are connected, the
// context is done, or the cluster closes (ErrClusterClosed).
func (c *Cluster) WaitForWorkers(ctx context.Context, n int) error {
	if err := c.co.WaitWorkers(ctx, n); err != nil {
		if errors.Is(err, dist.ErrClosed) {
			return fmt.Errorf("%w: waiting for workers", ErrClusterClosed)
		}
		return err
	}
	return nil
}

// Close disconnects every worker and fails in-flight distributed sweeps
// with ErrClusterClosed.
func (c *Cluster) Close() error { return c.co.Close() }

// WorkerProgress is one worker's live execution state from the
// coordinator's own dispatch records. Worker is the coordinator-assigned
// id, Capacity the worker's concurrent-session slots, Active the sweep
// points dispatched to it and not yet answered, Completed the points it
// returned since it connected (the delta between two polls over their
// wall-clock gap is its throughput) and LastReport the time of its last
// dispatch or result (zero until the first). The counters are exact once
// a sweep returns.
type WorkerProgress = dist.WorkerProgress

// Progress returns the progress of every connected worker, ordered by
// worker id. Poll it while a sweep or saturation search on a
// cluster-attached network drains to display live cluster state — `sfexp
// -listen -telemetry` writes these as NDJSON progress records.
func (c *Cluster) Progress() []WorkerProgress { return c.co.Progress() }

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Parallel is the number of sweep points the worker runs concurrently
	// (default GOMAXPROCS).
	Parallel int
	// DialRetry keeps retrying the initial connection for up to this long,
	// covering the bring-up order where workers launch before the
	// coordinator listens (default: one attempt only).
	DialRetry time.Duration
	// Metrics, when set, observes every job's interval snapshots into the
	// worker's own /metrics endpoint (cmd/sfworker -metrics), whether or
	// not the coordinator asked for the snapshots forwarded. Attaching it
	// never perturbs results — snapshots are observational.
	Metrics *MetricsServer
	// Token is the shared secret presented to a coordinator started with
	// ClusterToken; a mismatch ends service with ErrWorkerUnauthorized.
	Token string
	// Reconnect keeps the worker in service across connection loss and
	// coordinator restarts: after an abnormal disconnect it redials with
	// exponential backoff (for up to DialRetry per attempt round, default
	// 15s when unset) and registers afresh; stored networks survive. An
	// orderly coordinator shutdown (goodbye) or an auth rejection still
	// ends service — only unexpected losses retry.
	Reconnect bool
}

// ErrWorkerUnauthorized reports a worker rejected by a token-guarded
// coordinator (ClusterToken): the token is bad or missing, so retrying is
// pointless — ServeWorker treats it as permanent even with Reconnect.
var ErrWorkerUnauthorized = errors.New("stringfigure: worker unauthorized")

// ServeWorker dials a cluster coordinator and serves sweep points until
// the coordinator disconnects (returns nil), ctx is canceled (returns
// ctx.Err()), or — without WorkerOptions.Reconnect — the connection is
// lost. Jobs rebuild the coordinator's network from its serialized spec
// — builds are deterministic, so results are bit-identical to in-process
// runs — through the process's one network store: the jobs, reconnects
// and ServeWorkers of a process share one build per spec, not one per
// call. cmd/sfworker is a thin flag wrapper around this function.
func ServeWorker(ctx context.Context, addr string, o WorkerOptions) error {
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	var observe func(TelemetrySnapshot)
	if o.Metrics != nil {
		observe = o.Metrics.Observe
	}
	retry := o.DialRetry
	for {
		conn, err := dist.Dial(ctx, addr, retry)
		if err != nil {
			return fmt.Errorf("stringfigure: worker dial %s: %w", addr, err)
		}
		err = dist.Serve(ctx, conn, o.Parallel, runJob(observe), dist.Config{Token: o.Token})
		switch {
		case err == nil:
			return nil // orderly coordinator shutdown
		case errors.Is(err, dist.ErrUnauthorized):
			return fmt.Errorf("%w: %v", ErrWorkerUnauthorized, err)
		case ctx.Err() != nil:
			return ctx.Err()
		case !o.Reconnect:
			return err
		}
		// Abnormal loss with Reconnect on: go around and redial.
		if retry <= 0 {
			retry = 15 * time.Second
		}
	}
}

// runJob is the worker-side executor: decode the job, take the network
// from the process's store, run the point through the exact in-process
// code path. Jobs dispatched with Telemetry get a batching snapshot sink
// whose batches travel back as dist snapshot frames; the coordinator
// unpacks them into the sweep's local telemetry sink. observe, when set,
// is the worker's own local sink (WorkerOptions.Metrics): it sees every
// job's interval snapshots whether or not the coordinator asked for them
// forwarded.
func runJob(observe func(TelemetrySnapshot)) dist.RunFunc {
	return func(ctx context.Context, payload []byte, emit func([]byte)) ([]byte, error) {
		var job wireJob
		if err := decodeWire(payload, &job); err != nil {
			return nil, fmt.Errorf("stringfigure: worker decode job: %w", err)
		}
		net, err := sharedNetwork(job.Spec, nil)
		if err != nil {
			return nil, fmt.Errorf("stringfigure: worker build network: %w", err)
		}
		p, err := job.Point.point()
		if err != nil {
			return nil, err
		}
		cfg := job.Cfg
		var flush func()
		if job.Telemetry && emit != nil || observe != nil {
			// One point's snapshots are produced sequentially on its simulating
			// goroutine, so the batch needs no lock; the emitted frames inherit
			// the connection's write ordering.
			var batch []TelemetrySnapshot
			forward := job.Telemetry && emit != nil
			send := func() {
				if len(batch) == 0 {
					return
				}
				if b, err := encodeWire(wireSnapshotBatch{Snaps: batch}); err == nil {
					emit(b)
				}
				batch = batch[:0]
			}
			cfg = cfg.WithTelemetry(0, func(t TelemetrySnapshot) {
				if observe != nil {
					observe(t)
				}
				if !forward {
					return
				}
				batch = append(batch, t)
				if len(batch) >= snapshotBatchMax {
					send()
				}
			})
			if forward {
				flush = send
			}
		}
		res := net.runPoint(ctx, cfg, p, job.Index)
		if flush != nil {
			flush()
		}
		return encodeWire(resultToWire(res))
	}
}
