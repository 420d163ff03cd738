package stringfigure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"

	"repro/internal/design"
	"repro/internal/jobsvc"
	"repro/internal/trace"
)

// JobSpec is the JSON payload of one simulation-service job: a network to
// build and a rate sweep to run over it. It is the `spec` field of a
// `POST /v1/jobs` submission and the argument of Service.SubmitJob. Each
// rate becomes one sweep point whose session seed derives from Seed and
// the point's index (PointSeed), so a job interrupted by a service
// restart resumes with results bit-identical to an uninterrupted run.
type JobSpec struct {
	// Design, Nodes, Ports and NetSeed build the network (see WithDesign,
	// WithNodes, WithPorts, WithSeed; Design defaults to "sf", Nodes is
	// required).
	Design  string `json:"design,omitempty"`
	Nodes   int    `json:"nodes"`
	Ports   int    `json:"ports,omitempty"`
	NetSeed int64  `json:"net_seed,omitempty"`

	// Workload is a synthetic traffic pattern (Patterns; default
	// "uniform"); Trace instead selects a trace-driven memory workload
	// (TraceWorkloads). Exactly one of the two may be set.
	Workload string `json:"workload,omitempty"`
	Trace    string `json:"trace,omitempty"`

	// Rates are the injection rates swept, one sweep point per entry
	// (default [0.1]; trace jobs typically leave this empty for a single
	// point — the rate is ignored by closed-loop replay but each point
	// still draws a distinct derived seed).
	Rates []float64 `json:"rates,omitempty"`

	// Seed is the sweep's base session seed; Warmup/Measure/PacketFlits/
	// Ops override the SessionConfig defaults when positive.
	Seed        int64 `json:"seed,omitempty"`
	Warmup      int64 `json:"warmup,omitempty"`
	Measure     int64 `json:"measure,omitempty"`
	PacketFlits int   `json:"packet_flits,omitempty"`
	Ops         int   `json:"ops,omitempty"`

	// Telemetry streams interval snapshots onto the job's live stream
	// (GET /v1/jobs/{id}/stream), every TelemetryEvery cycles (default
	// 1000). Telemetry never perturbs results. FlowBuckets adds per-flow
	// deltas and link/router utilization to every streamed snapshot;
	// TraceSampleEvery adds 1-in-K sampled packet-lifecycle traces (see
	// SessionConfig). Both are inert unless Telemetry is set.
	Telemetry        bool  `json:"telemetry,omitempty"`
	TelemetryEvery   int64 `json:"telemetry_every,omitempty"`
	FlowBuckets      int   `json:"flow_buckets,omitempty"`
	TraceSampleEvery int64 `json:"trace_sample_every,omitempty"`

	// Scenario attaches declarative scenarios to every sweep point:
	// churn traces, failure storms, diurnal/bursty rate modulation or
	// the S2 regeneration baseline (see ScenarioSpec; same snake_case
	// JSON shape). Specs are validated at submission time, so an invalid
	// scenario rejects the job instead of failing its first point.
	Scenario []ScenarioSpec `json:"scenario,omitempty"`
}

// sessionConfig assembles the sweep's base session configuration.
func (js JobSpec) sessionConfig() SessionConfig {
	return SessionConfig{
		Seed:             js.Seed,
		Warmup:           js.Warmup,
		Measure:          js.Measure,
		PacketFlits:      js.PacketFlits,
		Ops:              js.Ops,
		TelemetryEvery:   js.TelemetryEvery,
		FlowBuckets:      js.FlowBuckets,
		TraceSampleEvery: js.TraceSampleEvery,
		Scenario:         js.Scenario,
	}
}

// workload resolves the spec's workload.
func (js JobSpec) workload() (Workload, error) {
	switch {
	case js.Trace != "" && js.Workload != "":
		return nil, fmt.Errorf("stringfigure: job spec sets both workload %q and trace %q", js.Workload, js.Trace)
	case js.Trace != "":
		if !slices.Contains(TraceWorkloads(), js.Trace) {
			return nil, fmt.Errorf("stringfigure: unknown trace workload %q (want one of %v)", js.Trace, TraceWorkloads())
		}
		return TraceWorkload{Workload: js.Trace}, nil
	default:
		pattern := js.Workload
		if pattern == "" {
			pattern = "uniform"
		}
		if !slices.Contains(Patterns(), pattern) {
			return nil, fmt.Errorf("stringfigure: unknown traffic pattern %q (want one of %v)", pattern, Patterns())
		}
		return SyntheticWorkload{Pattern: pattern}, nil
	}
}

// options are the New options of the job's network.
func (js JobSpec) options() options {
	return options{spec: design.Spec{Kind: js.Design, N: js.Nodes, Ports: js.Ports, Seed: js.NetSeed}}
}

// rates resolves the sweep's rate axis (one point per rate).
func (js JobSpec) rates() []float64 {
	if len(js.Rates) == 0 {
		return []float64{0.1}
	}
	return js.Rates
}

// Upper bounds on one job. A JobSpec arrives from the network and is
// journaled before it runs, so an oversized one would not fail once: the
// job log would replay it into every restart. They are constants, not
// options — nothing in the repository runs a job near them.
const (
	// maxJobNodes is the largest scale shown feasible (the N=4096 design
	// and routing-table builds of the event-core work).
	maxJobNodes = 4096
	// maxJobPorts is twice the paper's largest router (PortsForN's 8).
	maxJobPorts = 16
	// maxJobPoints bounds the rate axis (one sweep point and one journal
	// record per entry).
	maxJobPoints = 4096
	// maxJobCycles bounds warmup+measure at the closed-loop cycle budget.
	maxJobCycles = defaultMaxCycles
	// maxJobScenarioSpecs and maxJobChurnEvents bound the scenario list
	// and each churn-trace spec's explicit event list.
	maxJobScenarioSpecs = 16
	maxJobChurnEvents   = 4096
)

// JobLimitError reports a JobSpec field above the service's fixed upper
// bound: the job is rejected at submission (and a journaled one, replayed
// by a restart, settles failed without running).
type JobLimitError struct {
	// Field is the JobSpec JSON field (or derived quantity) over its bound.
	Field string
	// Value is what the spec asked for, Max the bound.
	Value, Max int64
}

// Error implements error.
func (e *JobLimitError) Error() string {
	return fmt.Sprintf("stringfigure: job spec %s = %d exceeds the service bound %d", e.Field, e.Value, e.Max)
}

// checkBounds rejects a spec any of whose sizes exceeds its bound.
func (js JobSpec) checkBounds() error {
	limits := []JobLimitError{
		{"nodes", int64(js.Nodes), maxJobNodes},
		{"ports", int64(js.Ports), maxJobPorts},
		{"rates (points)", int64(len(js.Rates)), maxJobPoints},
		// Each window alone first, so the sum below cannot overflow.
		{"warmup", js.Warmup, maxJobCycles},
		{"measure", js.Measure, maxJobCycles},
		{"warmup+measure", js.Warmup + js.Measure, maxJobCycles},
		{"ops", int64(js.Ops), trace.SharedOpsBound},
		{"scenario (specs)", int64(len(js.Scenario)), maxJobScenarioSpecs},
	}
	for _, sp := range js.Scenario {
		limits = append(limits, JobLimitError{"scenario gates (events)", int64(len(sp.Gates)), maxJobChurnEvents})
	}
	for _, l := range limits {
		if l.Value > l.Max {
			return &l
		}
	}
	return nil
}

// validate is the spec check shared by Plan (submission) and Run (a
// replayed job log is input too).
func (js JobSpec) validate() error {
	if js.Nodes < 2 {
		return fmt.Errorf("stringfigure: job spec needs nodes >= 2 (got %d)", js.Nodes)
	}
	if err := js.checkBounds(); err != nil {
		return err
	}
	if err := js.options().check(); err != nil {
		return err
	}
	if _, err := js.workload(); err != nil {
		return err
	}
	for i, r := range js.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("stringfigure: job spec rate %d is %v", i, r)
		}
	}
	// Resolve the scenario schedule exactly as the run will — the same
	// function over the same default-filled config — against a bare
	// environment (every node alive, the paper's Section VI timing), so an
	// invalid scenario rejects the job instead of failing its first point.
	// The run resolves again over the live network.
	cfg := js.sessionConfig()
	cfg.fill()
	env := scenarioEnv(js.Nodes, nil, js.Seed)
	if _, err := resolveSchedule(cfg, env, js.Trace != ""); err != nil {
		return err
	}
	// A derived per-point seed of exactly 0 cannot be pinned through
	// Point.Seed (0 means "derive"), which would break resume determinism
	// for that point; reject the pathological base seeds that hit it.
	for i := range js.rates() {
		if PointSeed(js.Seed, i) == 0 {
			return fmt.Errorf("stringfigure: job spec seed %d derives seed 0 at point %d; pick another seed", js.Seed, i)
		}
	}
	return nil
}

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// StateDir is the durable state directory (required): the job log and
	// per-job checkpoint journals live here, and a service reopened over
	// the same directory resumes its unfinished jobs.
	StateDir string
	// Cluster, when set, shards every job's sweep points over its
	// connected workers (falling back to in-process execution while it
	// has none) — results are bit-identical either way.
	Cluster *Cluster
	// Token guards the HTTP surface (Authorization: Bearer). Empty
	// accepts every request.
	Token string
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Service is the simulation-as-a-service front: a persistent multi-tenant
// job coordinator over the sweep machinery, with a durable queue,
// point-level checkpoint/resume and an HTTP/JSON API (Handler). Submit a
// JobSpec and the service sweeps it — locally or over an attached
// Cluster — journaling every completed point, so killing and reopening
// the service (cmd/sfserve restarts included) re-runs only unfinished
// points and merges results bit-identical to an uninterrupted run.
type Service struct {
	svc *jobsvc.Service
}

// JobStatus is one job's status snapshot, as returned by SubmitJob/Job
// and serialized by the HTTP API: the job service's own record. States:
// "queued", "running", "done", "failed", "canceled". Submitted is the
// submission time; Finished is set once the job settles.
type JobStatus = jobsvc.Job

// ErrUnknownJob reports a job id the service does not know.
var ErrUnknownJob = errors.New("stringfigure: unknown job")

func mapJobErr(err error) error {
	if errors.Is(err, jobsvc.ErrUnknownJob) {
		return fmt.Errorf("%w: %v", ErrUnknownJob, err)
	}
	return err
}

// NewService opens (or resumes) a simulation job service over a state
// directory. Jobs left queued or running by a previous instance dispatch
// again immediately, skipping their checkpointed points. Close the
// service to stop; cmd/sfserve wraps this in a binary.
func NewService(cfg ServiceConfig) (*Service, error) {
	svc, err := jobsvc.Open(jobsvc.Config{
		StateDir:  cfg.StateDir,
		Executor:  &sweepExecutor{cluster: cfg.Cluster},
		MaxActive: cfg.MaxActive,
		Token:     cfg.Token,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("stringfigure: job service: %w", err)
	}
	return &Service{svc: svc}, nil
}

// SubmitJob plans and enqueues one sweep job for a tenant (empty tenant
// submits as "default"; higher priority runs first within a tenant, and
// tenants share the service round-robin).
func (s *Service) SubmitJob(tenant string, priority int, spec JobSpec) (JobStatus, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return s.svc.Submit(tenant, priority, raw)
}

// Job returns one job's status.
func (s *Service) Job(id string) (JobStatus, error) {
	j, err := s.svc.Get(id)
	return j, mapJobErr(err)
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	return s.svc.List()
}

// CancelJob cancels a job (queued jobs immediately; running jobs abort at
// the next point boundary, keeping their checkpointed results readable).
func (s *Service) CancelJob(id string) error {
	return mapJobErr(s.svc.Cancel(id))
}

// JobResults returns a job's checkpointed results ordered by point index
// — partial while it runs, complete once done. Results decode from the
// journal, so a resumed job's slice is bit-identical to a fresh run's.
func (s *Service) JobResults(id string) ([]Result, error) {
	prs, err := s.svc.Results(id)
	if err != nil {
		return nil, mapJobErr(err)
	}
	out := make([]Result, 0, len(prs))
	for _, pr := range prs {
		var r Result
		if err := json.Unmarshal(pr.Result, &r); err != nil {
			return nil, fmt.Errorf("stringfigure: decode journaled result for point %d: %w", pr.Point, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Handler returns the HTTP/JSON front door (see internal/jobsvc for the
// route table): POST /v1/jobs submits {tenant, priority, spec}, GET
// /v1/jobs[/{id}[/results]] reads state, GET /v1/jobs/{id}/stream is the
// NDJSON live stream, DELETE /v1/jobs/{id} cancels. ServiceConfig.Token
// gates every route.
func (s *Service) Handler() http.Handler { return s.svc.Handler() }

// Close stops the service: running jobs are interrupted (and stay
// resumable — the next NewService over the same state directory picks
// them up at their last checkpoint), journals are flushed.
func (s *Service) Close() error { return s.svc.Close() }

// WatchService exposes the job service's per-tenant queue depth, running
// jobs and checkpointed-point throughput on this metrics endpoint
// (sfserve_* families), alongside whatever simulation and cluster
// families already live there.
func (m *MetricsServer) WatchService(s *Service) { s.svc.RegisterMetrics(m.reg) }

// sweepExecutor adapts the sweep machinery to the jobsvc Executor
// contract. Determinism: pending points carry explicit per-point seeds
// derived from the spec's base seed and each point's GLOBAL index
// (PointSeed), so a resumed job — which runs only a subset — produces
// sessions identical to the full sweep's, and the journal merge is
// byte-identical to an uninterrupted run.
type sweepExecutor struct {
	cluster *Cluster
}

// Plan implements jobsvc.Executor.
func (e *sweepExecutor) Plan(raw json.RawMessage) (int, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("stringfigure: decode job spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return 0, err
	}
	return len(spec.rates()), nil
}

// Run implements jobsvc.Executor.
func (e *sweepExecutor) Run(ctx context.Context, raw json.RawMessage, pending []int, emit jobsvc.Emitter) error {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("stringfigure: decode job spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return err
	}
	w, err := spec.workload()
	if err != nil {
		return err
	}
	net, err := sharedNetwork(networkSpec{Spec: spec.options().spec}, e.cluster)
	if err != nil {
		return err
	}
	rates := spec.rates()
	cfg := spec.sessionConfig()
	if spec.Telemetry && emit.Telemetry != nil {
		sink := emit.Telemetry
		cfg = cfg.WithTelemetry(0, func(t TelemetrySnapshot) {
			if b, err := json.Marshal(t); err == nil {
				sink(b)
			}
		})
	}
	// The pending subset runs with explicit seeds pinned to the global
	// indices — Point.Seed overrides the position-derived seed, which
	// would otherwise shift when earlier points are already checkpointed.
	points := make([]Point, len(pending))
	for k, i := range pending {
		points[k] = Point{Workload: w, Rate: rates[i], Seed: PointSeed(spec.Seed, i)}
	}
	var firstErr error
	k := 0
	for res := range net.SweepContext(ctx, cfg, points, 0) {
		i := pending[k]
		k++
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: %w", i, res.Err)
			}
			continue
		}
		b, err := json.Marshal(res)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: encode result: %w", i, err)
			}
			continue
		}
		emit.Result(i, b)
	}
	if ctx.Err() != nil {
		// Interrupted (service shutdown or cancel): report the bare
		// context error so the job stays resumable rather than failed.
		return ctx.Err()
	}
	return firstErr
}
