package stringfigure

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
)

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		switch j.State {
		case "done":
			return j
		case "failed", "canceled":
			t.Fatalf("job %s settled %s: %s", id, j.State, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobStatus{}
}

// checkOwnSweep returns a finished job's results after checking them
// against SweepAll on a network of the job's own.
func checkOwnSweep(t *testing.T, s *Service, id string, js JobSpec) []Result {
	t.Helper()
	got, err := s.JobResults(id)
	if err != nil {
		t.Fatal(err)
	}
	own, err := js.options().build()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := js.workload()
	want := own.SweepAll(js.sessionConfig(), RateSweep(w, js.rates()), 0)
	if d := golden.Diff(want, got); d != "" {
		t.Fatalf("job %s differs from a sweep on a network of its own (recorded: own network, got: job):%s", id, d)
	}
	return got
}

// quickSpec is a sweep small enough for CI yet with several points, so an
// interruption can land mid-job.
func quickSpec() JobSpec {
	return JobSpec{
		Nodes:   16,
		Rates:   []float64{0.05, 0.1, 0.15, 0.2},
		Seed:    42,
		Warmup:  200,
		Measure: 400,
	}
}

// TestServiceResumeBitIdentical is the service's resume invariant at the
// Go level: a job interrupted mid-sweep finishes, after a restart, with
// results byte-identical to the same job run uninterrupted. The
// interrupted state is built by hand, so every run checks a resume: the
// job runs to completion once, then its checkpoint journal is cut to its
// first records and its terminal state record is dropped from the job
// log — what a service killed mid-job leaves in its state directory.
//
// A gated job runs first on the same stored network, and nothing of it
// may leak into the plain job: its results equal a sweep on a network of
// its own, and the stored network was never reconfigured — the gated job
// gated a private copy of its engine — and ends all-alive.
func TestServiceResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec()

	s1, err := NewService(ServiceConfig{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	churn := spec
	churn.Scenario = []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 50, Node: 3})}
	for _, js := range []JobSpec{churn, spec} {
		j, err := s1.SubmitJob("alice", 0, js)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s1, j.ID)
	}
	j := s1.Jobs()[1]
	fresh := checkOwnSweep(t, s1, j.ID, spec)
	s1.Close()
	stored, err := sharedNetwork(networkSpec{Spec: spec.options().spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stored.ReconfigStats().Reconfigs != 0 || stored.AliveCount() != spec.Nodes {
		t.Fatalf("stored network: %d reconfigurations, %d of %d nodes alive; want none and all alive",
			stored.ReconfigStats().Reconfigs, stored.AliveCount(), spec.Nodes)
	}

	// The state directory's layout: jobs.jsonl is the job log, and
	// job-<id>.ckpt.jsonl the job's checkpoint journal, one JSON line per
	// record.
	const kept = 2
	journal := filepath.Join(dir, "job-"+j.ID+".ckpt.jsonl")
	lines := readLines(t, journal)
	if len(lines) != len(spec.Rates) {
		t.Fatalf("journal holds %d records, want %d", len(lines), len(spec.Rates))
	}
	writeLines(t, journal, lines[:kept])
	jobLog := filepath.Join(dir, "jobs.jsonl")
	var log []string
	for _, line := range readLines(t, jobLog) {
		var rec struct{ Op, ID, State string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "state" && rec.ID == j.ID && rec.State == "done" {
			continue
		}
		log = append(log, line)
	}
	writeLines(t, jobLog, log)

	s2, err := NewService(ServiceConfig{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := waitJob(t, s2, j.ID)
	if got.Completed != got.Points {
		t.Fatalf("resumed job completed %d of %d", got.Completed, got.Points)
	}
	if after := readLines(t, journal); len(after) != len(lines) || !slices.Equal(after[:kept], lines[:kept]) {
		t.Fatalf("resumed journal holds %d records (want %d) or rewrote the %d it kept", len(after), len(lines), kept)
	}
	resumed, err := s2.JobResults(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := golden.Diff(fresh, resumed); d != "" {
		t.Fatalf("resumed results differ from uninterrupted run (recorded: fresh, got: resumed):%s", d)
	}
}

// readLines returns the lines of a JSONL file.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// writeLines replaces a JSONL file with lines.
func writeLines(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServiceHTTPAuth pins the HTTP token gate end to end on the public
// service type.
func TestServiceHTTPAuth(t *testing.T) {
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Token: "sekrit", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"tenant":"alice","spec":{"nodes":16,"rates":[0.05],"warmup":100,"measure":200}}`
	for _, tc := range []struct {
		token string
		want  int
	}{
		{"", http.StatusUnauthorized},
		{"wrong", http.StatusUnauthorized},
		{"sekrit", http.StatusCreated},
	} {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(body))
		if tc.token != "" {
			req.Header.Set("Authorization", "Bearer "+tc.token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("token %q: status %d, want %d", tc.token, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
}

// TestWorkerReconnectAcrossCoordinator pins WorkerOptions.Reconnect: a
// worker survives a coordinator restart, observes the session change, and
// an auth rejection stays permanent despite Reconnect.
func TestWorkerReconnectAcrossCoordinator(t *testing.T) {
	c1, err := NewCluster("127.0.0.1:0", ClusterToken("sekrit"))
	if err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeWorker(ctx, addr, WorkerOptions{
			Parallel:  1,
			DialRetry: 10 * time.Second,
			Token:     "sekrit",
			Reconnect: true,
		})
	}()
	if err := c1.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// An orderly Close sends a goodbye, which ends service even for
	// reconnecting workers — Reconnect only retries abnormal losses.
	c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker after orderly close: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on orderly coordinator close")
	}

	// The redial path: start the worker before the coordinator exists on
	// that port — the backoff dial must land once it appears.
	go func() {
		done <- ServeWorker(ctx, addr, WorkerOptions{
			Parallel: 1, DialRetry: 10 * time.Second, Token: "sekrit", Reconnect: true,
		})
	}()
	time.Sleep(50 * time.Millisecond) // let at least one dial fail first
	c2, err := NewCluster(addr, ClusterToken("sekrit"))
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer c2.Close()
	if err := c2.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Auth rejection is permanent even with Reconnect set.
	bad := make(chan error, 1)
	go func() {
		bad <- ServeWorker(ctx, addr, WorkerOptions{
			Parallel: 1, DialRetry: time.Second, Token: "wrong", Reconnect: true,
		})
	}()
	select {
	case err := <-bad:
		if err == nil || !strings.Contains(err.Error(), "unauthorized") {
			t.Fatalf("bad-token worker returned %v, want unauthorized", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bad-token worker kept retrying; ErrUnauthorized must be permanent")
	}
}

// serveTwoJobs runs sfserve's moving parts in process: two jobs
// submitted over HTTP to a Service on a token-guarded cluster of two
// workers. Both jobs reproduce a sweep on a network of their own; the
// workers share one store entry and the service's jobs another (its key
// carries the cluster).
func serveTwoJobs(t *testing.T) []netKey {
	cluster, err := NewCluster("127.0.0.1:0", ClusterToken("tok"))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for range 2 {
		go ServeWorker(ctx, cluster.Addr(), WorkerOptions{Parallel: 1, Token: "tok", DialRetry: 5 * time.Second})
	}
	if err := cluster.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Cluster: cluster, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := quickSpec()
	specRaw, _ := json.Marshal(spec)
	for range 2 {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"tenant":"alice","spec":`+string(specRaw)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var j JobStatus
		json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		waitJob(t, s, j.ID)
		checkOwnSweep(t, s, j.ID, spec)
	}
	for _, w := range cluster.Progress() {
		if w.Completed == 0 {
			t.Fatalf("worker %d ran no point", w.Worker)
		}
	}
	key := networkSpec{Spec: spec.options().spec}
	return []netKey{key.key(nil), key.key(cluster)}
}

// serveJobAndWorkerSpec runs one job of quickSpec as submitted
// ({"nodes":16}: no design, no port count) on a Service without a cluster,
// then takes the network a worker takes for it, whose spec comes
// normalized (sf, 4 ports): both must be one stored network.
func serveJobAndWorkerSpec(t *testing.T) []netKey {
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := quickSpec()
	j, err := s.SubmitJob("alice", 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j.ID)
	checkOwnSweep(t, s, j.ID, spec)
	submitted := networkSpec{Spec: spec.options().spec}
	normal, err := submitted.Spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if normal == submitted.Spec {
		t.Fatalf("spec %+v is in normal form already: the case checks nothing", normal)
	}
	worker := networkSpec{Spec: normal}
	keys := getShared(t, worker, nil)
	a, errA := sharedNetwork(submitted, nil)
	b, errB := sharedNetwork(worker, nil)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("submitted spec got network %p (%v), normal form %p (%v)", a, errA, b, errB)
	}
	return keys
}

// TestServiceScenarioSentinelParity pins the one-source-of-truth rule for
// scenario x workload legality: submission resolves the schedule with the
// function the run itself calls, so every cell Session.Run rejects is
// rejected by SubmitJob with the same sentinel, and every cell that runs is
// accepted.
func TestServiceScenarioSentinelParity(t *testing.T) {
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scenarios := []struct {
		name   string
		design string
		specs  []ScenarioSpec
	}{
		{"churn-trace", "sf", []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 50, Node: 3})}},
		// Churn stops early: over a trace job's 40M-cycle budget it would
		// gate every node at some point and leave nowhere to place pages.
		{"churn", "sf", []ScenarioSpec{{Kind: ScenarioChurn, Every: 100, MaxDown: 1, Stop: 400}}},
		{"storm", "sf", []ScenarioSpec{FailureStorm(50, 4, 1, 0)}},
		{"diurnal", "sf", []ScenarioSpec{DiurnalRate(200, 0.5)}},
		{"bursty", "sf", []ScenarioSpec{BurstyRate(100, 20, 2)}},
		{"regen", "s2", []ScenarioSpec{RegenerateS2(150, 4, 50)}},
		{"unknown-kind", "sf", []ScenarioSpec{{Kind: "meteor"}}},
		{"churn-no-tick", "sf", []ScenarioSpec{Churn(0, 1)}},
		{"two-rate-specs", "sf", []ScenarioSpec{DiurnalRate(200, 0.5), BurstyRate(100, 20, 2)}},
		{"regen+storm", "s2", []ScenarioSpec{RegenerateS2(150, 4, 50), FailureStorm(50, 4, 1, 0)}},
		{"event-out-of-range", "sf", []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 50, Node: 99})}},
	}
	for _, sc := range scenarios {
		for _, closedLoop := range []bool{false, true} {
			name := sc.name + "/synthetic"
			js := JobSpec{Design: sc.design, Nodes: 16, Seed: 3, Warmup: 100, Measure: 300,
				Ops: 50, Scenario: sc.specs}
			var w Workload = SyntheticWorkload{Pattern: "uniform"}
			if closedLoop {
				name = sc.name + "/trace"
				js.Trace = TraceWorkloads()[0]
				w = TraceWorkload{Workload: js.Trace}
			}
			t.Run(name, func(t *testing.T) {
				_, runErr := mustNet(t, sc.design, 16).NewSession(js.sessionConfig()).Run(w)
				if runErr != nil && !errors.Is(runErr, ErrScenario) {
					t.Fatalf("Session.Run: %v, want success or ErrScenario", runErr)
				}
				j, subErr := s.SubmitJob("parity", 0, js)
				if errors.Is(subErr, ErrScenario) != errors.Is(runErr, ErrScenario) || (subErr == nil) != (runErr == nil) {
					t.Errorf("SubmitJob err = %v, Session.Run err = %v", subErr, runErr)
				}
				if subErr == nil {
					if err := s.CancelJob(j.ID); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestServiceRejectsOversizedJobs is the hostile-input gate: every JobSpec
// size has a fixed upper bound checked at submission with a typed error —
// the poison job {"nodes":100000000} used to be journaled and then killed
// the service with an out-of-memory design build on every restart.
func TestServiceRejectsOversizedJobs(t *testing.T) {
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	manyGates := make([]GateEvent, maxJobChurnEvents+1)
	for _, tc := range []struct {
		field string
		spec  JobSpec
	}{
		{"nodes", JobSpec{Nodes: 100_000_000}},
		{"nodes", JobSpec{Nodes: maxJobNodes + 1}},
		{"ports", JobSpec{Nodes: 16, Ports: maxJobPorts + 1}},
		{"rates (points)", JobSpec{Nodes: 16, Rates: make([]float64, maxJobPoints+1)}},
		{"warmup", JobSpec{Nodes: 16, Warmup: 1 << 62, Measure: 1 << 62}},
		{"measure", JobSpec{Nodes: 16, Measure: maxJobCycles + 1}},
		{"warmup+measure", JobSpec{Nodes: 16, Warmup: maxJobCycles/2 + 1, Measure: maxJobCycles / 2}},
		{"ops", JobSpec{Nodes: 16, Trace: TraceWorkloads()[0], Ops: 1<<20 + 1}},
		{"scenario (specs)", JobSpec{Nodes: 16, Scenario: make([]ScenarioSpec, maxJobScenarioSpecs+1)}},
		{"scenario gates (events)", JobSpec{Nodes: 16, Scenario: []ScenarioSpec{ChurnTrace(manyGates...)}}},
	} {
		_, err := s.SubmitJob("mallory", 0, tc.spec)
		var lim *JobLimitError
		if !errors.As(err, &lim) || lim.Field != tc.field {
			t.Errorf("%s over bound: err = %v, want a JobLimitError on that field", tc.field, err)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d oversized jobs were journaled", len(jobs))
	}
	// At the bounds a spec is still legal (checked without running it).
	edge := JobSpec{Nodes: maxJobNodes, Ports: maxJobPorts, Rates: make([]float64, maxJobPoints),
		Warmup: maxJobCycles / 2, Measure: maxJobCycles / 2, Ops: 1 << 20}
	if err := edge.validate(); err != nil {
		t.Errorf("spec at the bounds rejected: %v", err)
	}
}

// TestServiceRejectsUnbuildableNetworks: a job whose network New would
// refuse is rejected at submission with New's own error, not journaled to
// settle failed at its first run.
func TestServiceRejectsUnbuildableNetworks(t *testing.T) {
	s, err := NewService(ServiceConfig{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, js := range []JobSpec{
		{Design: "dm", Nodes: 16, Ports: 4},
		{Design: "odm", Nodes: 16, Ports: 4},
		{Design: "fb", Nodes: 16, Ports: 4},
		{Nodes: 16, Ports: 1},
	} {
		_, newErr := New(WithDesign(js.Design), WithNodes(js.Nodes), WithPorts(js.Ports))
		if newErr == nil {
			t.Fatalf("%+v: New accepted the network", js)
		}
		// The job service wraps the plan error once.
		_, err := s.SubmitJob("mallory", 0, js)
		if planErr := errors.Unwrap(err); planErr == nil || planErr.Error() != newErr.Error() {
			t.Errorf("%+v: SubmitJob err = %v, want New's %v", js, err, newErr)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d unbuildable jobs were journaled", len(jobs))
	}
}

// TestServiceReplayedOversizedJobFails: a job log written before the
// bounds existed is input too — the replayed poison job settles failed
// instead of building a 100M-node design.
func TestServiceReplayedOversizedJobFails(t *testing.T) {
	dir := t.TempDir()
	rec := `{"op":"submit","id":"j-000001","tenant":"mallory","points":1,"spec":{"nodes":100000000},"at":"2026-09-01T00:00:00Z"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewService(ServiceConfig{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := s.Job("j-000001")
		if err != nil {
			t.Fatal(err)
		}
		if j.State == "failed" {
			if !strings.Contains(j.Error, "exceeds the service bound") {
				t.Errorf("failed with %q, want the bound error", j.Error)
			}
			return
		}
		if j.State == "done" || time.Now().After(deadline) {
			t.Fatalf("replayed oversized job is %s, want failed", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
