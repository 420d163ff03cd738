package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/jobsvc"
)

// Job shape of service-cluster: small points, so the service tier's own
// work (job log, journal fsync, frames, codec, JSON streaming) is a
// visible share of a job.
const (
	jobNodes   = 64
	jobPoints  = 8
	jobWarmup  = 200
	jobMeasure = 800
)

// jobSpec is op i's job: 8 rates from 0.05 to 0.31 on the bench's sf N=64
// network, the session seed drawn per op.
func jobSpec(seed int64, i int) stringfigure.JobSpec {
	rates := make([]float64, jobPoints)
	for k := range rates {
		rates[k] = math.Round((0.05+0.26*float64(k)/(jobPoints-1))*1e4) / 1e4
	}
	return stringfigure.JobSpec{
		Nodes: jobNodes, NetSeed: seed, Rates: rates,
		Seed: stringfigure.PointSeed(seed, i), Warmup: jobWarmup, Measure: jobMeasure,
	}
}

// serviceBench drives the job service through its HTTP front door: a
// loopback cluster of two single-slot workers behind a Service with one
// active job, served by an httptest server.
type serviceBench struct {
	seed  int64
	scale float64
	tmp   string

	stopWorkers func()
	cluster     *stringfigure.Cluster
	svc         *stringfigure.Service
	srv         *httptest.Server
	stateDir    string
	requeued    atomic.Int64
	// duplicates counts stream records that repeated an already seen point.
	duplicates int
	// verified is set once job 0 has been checked against a local sweep;
	// the untimed warm-up op does it, so no timed op pays for the check.
	verified bool
}

// startWorkers connects n single-slot workers to the cluster and waits
// until they have registered. The returned stop cancels and joins them.
func startWorkers(cluster *stringfigure.Cluster, n int) (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's exit reason is not an outcome of the benchmark:
			// it ends when the cluster closes or stop cancels it.
			_ = stringfigure.ServeWorker(ctx, cluster.Addr(), stringfigure.WorkerOptions{Parallel: 1})
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	wait, cancelWait := context.WithTimeout(ctx, 30*time.Second)
	defer cancelWait()
	if err := cluster.WaitForWorkers(wait, n); err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

func (b *serviceBench) setUp() error {
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.tmp, "service-")
	if err != nil {
		return err
	}
	b.stateDir = dir
	// The coordinator reports lost workers only through its log: "worker
	// %d lost, requeueing %d in-flight tasks". Sum the task counts.
	b.requeued.Store(0)
	cluster, err := stringfigure.NewCluster("127.0.0.1:0", stringfigure.ClusterLogger(func(format string, args ...any) {
		if strings.Contains(format, "requeueing %d") && len(args) > 0 {
			if n, ok := args[len(args)-1].(int); ok {
				b.requeued.Add(int64(n))
			}
		}
	}))
	if err != nil {
		return err
	}
	b.cluster = cluster
	stop, err := startWorkers(cluster, 2)
	if err != nil {
		return err
	}
	b.stopWorkers = stop
	svc, err := stringfigure.NewService(stringfigure.ServiceConfig{StateDir: dir, Cluster: cluster, MaxActive: 1})
	if err != nil {
		return err
	}
	b.svc = svc
	b.srv = httptest.NewServer(svc.Handler())
	return nil
}

func (b *serviceBench) close() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.svc != nil {
		b.svc.Close()
		b.svc = nil
	}
	if b.cluster != nil {
		b.cluster.Close()
		b.cluster = nil
	}
	if b.stopWorkers != nil {
		b.stopWorkers()
		b.stopWorkers = nil
	}
	if b.stateDir != "" {
		os.RemoveAll(b.stateDir)
		b.stateDir = ""
	}
}

// streamRecord is the part of a job stream record the client reads.
type streamRecord struct {
	Type   string          `json:"type"`
	Point  *int            `json:"point"`
	Result json.RawMessage `json:"result"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
}

// op submits op i's job over HTTP and follows its stream to the terminal
// status record. The job must settle "done" with exactly one result per
// point; job 0's results must equal a local SweepAll of the same spec
// byte for byte.
func (b *serviceBench) op(ctx context.Context, i int) (opOut, error) {
	spec := jobSpec(b.seed, i)
	body, err := json.Marshal(map[string]any{"tenant": "sfperf", "spec": spec})
	if err != nil {
		return opOut{}, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return opOut{}, err
	}
	resp, err := b.srv.Client().Do(req)
	if err != nil {
		return opOut{}, err
	}
	var job stringfigure.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return opOut{}, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
	}
	out := opOut{submitMs: float64(time.Since(start).Nanoseconds()) / 1e6}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, b.srv.URL+"/v1/jobs/"+job.ID+"/stream", nil)
	if err != nil {
		return opOut{}, err
	}
	resp, err = b.srv.Client().Do(req)
	if err != nil {
		return opOut{}, err
	}
	defer resp.Body.Close()
	results := make([][]byte, jobPoints)
	seen, state := 0, ""
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	for state == "" && lines.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(lines.Bytes(), &rec); err != nil {
			return opOut{}, fmt.Errorf("stream: %w", err)
		}
		switch rec.Type {
		case "result":
			if seen == 0 {
				out.firstResultMs = float64(time.Since(start).Nanoseconds()) / 1e6
			}
			if rec.Point == nil || *rec.Point < 0 || *rec.Point >= jobPoints {
				return opOut{}, fmt.Errorf("stream: result record without a valid point")
			}
			// A point checkpointed while the stream attaches can arrive
			// twice, once replayed and once live (jobsvc.Subscribe leaves
			// de-duplication to the consumer). A repeat must carry the
			// same bytes; it is counted, not failed.
			if prev := results[*rec.Point]; prev != nil {
				if !bytes.Equal(prev, rec.Result) {
					return opOut{}, fmt.Errorf("stream: point %d arrived twice with different results", *rec.Point)
				}
				b.duplicates++
				continue
			}
			seen++
			results[*rec.Point] = rec.Result
		case "status":
			state = rec.State
			if rec.Error != "" {
				state += ": " + rec.Error
			}
		}
	}
	if err := lines.Err(); err != nil {
		return opOut{}, fmt.Errorf("stream: %w", err)
	}
	if state != "done" || seen != jobPoints {
		return opOut{}, fmt.Errorf("job %s settled %q with %d of %d results", job.ID, state, seen, jobPoints)
	}
	for _, raw := range results {
		var res stringfigure.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return opOut{}, err
		}
		out.counts.add(simCounts{Cycles: res.Cycles, Injected: res.Injected, Delivered: res.Delivered,
			Escaped: res.Escaped, Dropped: res.Dropped})
	}
	out.result = bytes.Join(results, []byte{','})
	if i == 0 && !b.verified {
		b.verified = true
		local, err := localSweep(ctx, spec)
		if err != nil {
			return opOut{}, err
		}
		if !bytes.Equal(local, out.result) {
			return opOut{}, fmt.Errorf("job 0's streamed results differ from a local SweepAll of its spec")
		}
	}
	return out, nil
}

// jobSweep builds the network, session configuration and points the
// service's executor builds for spec.
func jobSweep(spec stringfigure.JobSpec, opts ...stringfigure.Option) (*stringfigure.Network, stringfigure.SessionConfig, []stringfigure.Point, error) {
	opts = append(opts, stringfigure.WithNodes(spec.Nodes), stringfigure.WithSeed(spec.NetSeed))
	net, err := stringfigure.New(opts...)
	if err != nil {
		return nil, stringfigure.SessionConfig{}, nil, err
	}
	cfg := stringfigure.SessionConfig{Seed: spec.Seed, Warmup: spec.Warmup, Measure: spec.Measure}
	points := make([]stringfigure.Point, len(spec.Rates))
	for k, rate := range spec.Rates {
		points[k] = stringfigure.Point{
			Workload: stringfigure.SyntheticWorkload{Pattern: "uniform"},
			Rate:     rate, Seed: stringfigure.PointSeed(spec.Seed, k),
		}
	}
	return net, cfg, points, nil
}

// encodeResults is the encoding op uses for a job's ordered results.
func encodeResults(results []stringfigure.Result) ([]byte, error) {
	parts := make([][]byte, len(results))
	for k, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("point %d: %w", k, res.Err)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		parts[k] = enc
	}
	return bytes.Join(parts, []byte{','}), nil
}

// localSweep runs spec's points through the in-process sweep pool on one
// worker.
func localSweep(ctx context.Context, spec stringfigure.JobSpec) ([]byte, error) {
	net, cfg, points, err := jobSweep(spec)
	if err != nil {
		return nil, err
	}
	return encodeResults(net.SweepAllContext(ctx, cfg, points, 1))
}

// probe runs op i's points through the in-process pool on one worker:
// the job's pure point time, which service.job_self_ms subtracts (halved
// for the two workers) from the job's wall time.
func (b *serviceBench) probe(ctx context.Context, i int, rec *recorder, product opOut) error {
	var local []byte
	var err error
	rec.time("probe", func() {
		rec.time("sweep.local_w1", func() { local, err = localSweep(ctx, jobSpec(b.seed, i)) })
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(local, product.result) {
		return fmt.Errorf("local sweep differs from the job's streamed results")
	}
	return nil
}

// stubExecutor plans a spec of the form {"points": n} and completes every
// pending point at once with a fixed result, so what remains of a job's
// time is the job service itself.
type stubExecutor struct{}

func (stubExecutor) Plan(spec json.RawMessage) (int, error) {
	var s struct {
		Points int `json:"points"`
	}
	err := json.Unmarshal(spec, &s)
	return s.Points, err
}

func (stubExecutor) Run(_ context.Context, _ json.RawMessage, pending []int, emit jobsvc.Emitter) error {
	for _, p := range pending {
		emit.Result(p, json.RawMessage(`{"ok":true}`))
	}
	return nil
}

// stubJob submits a stub job of n points and waits for it to settle. It
// returns the submit call's time and the submit-to-done time.
func stubJob(svc *jobsvc.Service, n int) (submit, total time.Duration, err error) {
	start := time.Now()
	job, err := svc.Submit("sfperf", 0, json.RawMessage(fmt.Sprintf(`{"points":%d}`, n)))
	submit = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	for {
		j, err := svc.Get(job.ID)
		if err != nil {
			return 0, 0, err
		}
		switch j.State {
		case jobsvc.StateDone:
			return submit, time.Since(start), nil
		case jobsvc.StateFailed, jobsvc.StateCanceled:
			return 0, 0, fmt.Errorf("stub job settled %s: %s", j.State, j.Error)
		}
		if time.Since(start) > opTimeout {
			return 0, 0, fmt.Errorf("stub job did not settle")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (b *serviceBench) finish(_ *recorder, t totals, ops []timedOp, m map[string]float64) error {
	n := float64(len(ops))
	var submits []float64
	for _, op := range ops {
		if op.err == nil {
			submits = append(submits, op.out.submitMs)
		}
	}
	m["jobsvc.http_submit_ms"] = quantile(submits, 0.5)
	// What the service tier adds to a job: its wall time minus the pure
	// point time shared by the two workers. It is this workload's
	// session-layer cost too.
	self := t.ms["session.run"] - t.ms["sweep.local_w1"]/2
	m["service.job_self_ms"] = self / n
	m["session.self_ms"] = self / n
	m["session.share"] = ratio(self, t.ms["session.run"])
	m["dist.requeued"] = float64(b.requeued.Load())
	m["jobsvc.stream_duplicates"] = float64(b.duplicates)
	for _, w := range b.cluster.Progress() {
		m["dist.tasks"] += float64(w.Completed)
	}
	m["design.build_ms"] = medianMs(5, func() { _, _ = design.Build(design.Spec{Kind: "sf", N: jobNodes, Seed: b.seed}) })

	if err := b.sweepProbes(m); err != nil {
		return err
	}
	if err := b.distProbe(m); err != nil {
		return err
	}
	return b.jobsvcProbes(m)
}

// sweepProbes puts job 0's points through the in-process pool at one and
// two workers and through a one-worker loopback cluster, one after the
// other in every repetition so that the three share the host's mood: the
// cluster's extra time per point is what the codec and the frames cost.
func (b *serviceBench) sweepProbes(m map[string]float64) error {
	spec := jobSpec(b.seed, 0)
	local, cfg, points, err := jobSweep(spec)
	if err != nil {
		return err
	}
	cluster, err := stringfigure.NewCluster("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer cluster.Close()
	stop, err := startWorkers(cluster, 1)
	if err != nil {
		return err
	}
	defer stop()
	remote, _, _, err := jobSweep(spec, stringfigure.WithCluster(cluster))
	if err != nil {
		return err
	}
	var want []byte
	timed := func(sweep func() []stringfigure.Result) (float64, error) {
		start := time.Now()
		results := sweep()
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		got, err := encodeResults(results)
		if err == nil && want != nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("sweeps of the same points disagree")
		}
		want = got
		return ms, err
	}
	const reps = 5
	var w1s, w2s, speedups, extras []float64
	for k := 0; k < reps; k++ {
		w1, err := timed(func() []stringfigure.Result { return local.SweepAll(cfg, points, 1) })
		if err != nil {
			return err
		}
		w2, err := timed(func() []stringfigure.Result { return local.SweepAll(cfg, points, 2) })
		if err != nil {
			return err
		}
		via, err := timed(func() []stringfigure.Result { return remote.SweepDistributedAll(cfg, points) })
		if err != nil {
			return err
		}
		w1s, w2s = append(w1s, w1), append(w2s, w2)
		speedups, extras = append(speedups, w1/w2), append(extras, via-w1)
	}
	m["sweep.points_per_s_w1"] = jobPoints / (quantile(w1s, 0.5) / 1e3)
	m["sweep.points_per_s_w2"] = jobPoints / (quantile(w2s, 0.5) / 1e3)
	m["sweep.speedup_w2"] = quantile(speedups, 0.5)
	m["cluster.point_overhead_us"] = 1e3 * quantile(extras, 0.5) / jobPoints
	return nil
}

// distProbe times the bare task round trip of internal/dist: an echo
// worker on loopback, one task per run.
func (b *serviceBench) distProbe(m map[string]float64) error {
	co, err := dist.Listen("127.0.0.1:0", dist.Config{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, err := dist.Dial(ctx, co.Addr(), time.Second)
	if err != nil {
		co.Close()
		return err
	}
	served := make(chan error, 1)
	go func() {
		served <- dist.Serve(ctx, conn, 1, func(_ context.Context, payload []byte, _ func([]byte)) ([]byte, error) {
			return payload, nil
		}, dist.Config{})
	}()
	defer func() {
		co.Close()
		<-served
	}()
	if err := co.WaitWorkers(ctx, 1); err != nil {
		return err
	}
	reps := max(8, int(256*b.scale))
	var rerr error
	m["dist.task_rtt_us"] = 1e3 * medianMs(reps, func() {
		out, err := co.Run(ctx, [][]byte{[]byte("ping")}, nil)
		if err != nil {
			rerr = err
			return
		}
		for o := range out {
			if o.Err != nil {
				rerr = o.Err
			}
		}
	})
	return rerr
}

// jobsvcProbes measures internal/jobsvc with the simulation taken out:
// replaying the run's own state directory, and stub jobs against a fresh
// one.
func (b *serviceBench) jobsvcProbes(m map[string]float64) error {
	// Replay the state the benchmark's jobs left behind. The live service
	// must let go of the directory first.
	b.srv.Close()
	b.srv = nil
	if err := b.svc.Close(); err != nil {
		return err
	}
	b.svc = nil
	var err error
	m["jobsvc.open_ms"] = medianMs(5, func() {
		svc, oerr := jobsvc.Open(jobsvc.Config{StateDir: b.stateDir, Executor: stubExecutor{}})
		if oerr != nil {
			err = oerr
			return
		}
		svc.Close()
	})
	if err != nil {
		return err
	}

	dir := filepath.Join(b.stateDir, "stub")
	svc, err := jobsvc.Open(jobsvc.Config{StateDir: dir, Executor: stubExecutor{}, MaxActive: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	reps := max(3, int(33*b.scale))
	submits, totals := make([]float64, reps), make([]float64, reps)
	for k := range submits {
		submit, total, err := stubJob(svc, jobPoints)
		if err != nil {
			return err
		}
		submits[k] = float64(submit.Nanoseconds()) / 1e6
		totals[k] = float64(total.Nanoseconds()) / 1e6
	}
	m["jobsvc.submit_ms"] = quantile(submits, 0.5)
	m["jobsvc.job_overhead_ms"] = quantile(totals, 0.5)

	points := max(128, int(4096*b.scale))
	_, total, err := stubJob(svc, points)
	if err != nil {
		return err
	}
	m["jobsvc.journal_points_per_s"] = float64(points) / total.Seconds()
	return nil
}
