package jobsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
)

// fakeExec plans specs of the form {"points": N} and emits
// {"point": i, "val": i*i} per point — deterministic, so resume merges
// are byte-comparable. A non-nil gate blocks each point until released,
// and calls records every (job-distinguishing spec, point) executed.
type fakeExec struct {
	mu    sync.Mutex
	calls []int // every point index executed, across runs
	gate  chan struct{}
	// failAfter > 0 makes Run return an error once that many points of a
	// single call have completed.
	failAfter int
}

type fakeSpec struct {
	Points int `json:"points"`
}

func (f *fakeExec) Plan(spec json.RawMessage) (int, error) {
	var s fakeSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return 0, err
	}
	if s.Points <= 0 {
		return 0, fmt.Errorf("bad points %d", s.Points)
	}
	return s.Points, nil
}

func (f *fakeExec) Run(ctx context.Context, spec json.RawMessage, pending []int, emit Emitter) error {
	for n, p := range pending {
		if f.failAfter > 0 && n >= f.failAfter {
			return fmt.Errorf("synthetic failure after %d points", n)
		}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		f.mu.Lock()
		f.calls = append(f.calls, p)
		f.mu.Unlock()
		emit.Result(p, json.RawMessage(fmt.Sprintf(`{"point":%d,"val":%d}`, p, p*p)))
	}
	return nil
}

func (f *fakeExec) executed() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.calls...)
}

func openTestService(t *testing.T, dir string, exec Executor, mut ...func(*Config)) *Service {
	t.Helper()
	cfg := Config{StateDir: dir, Executor: exec, MaxActive: 1, Logf: t.Logf}
	for _, m := range mut {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func waitState(t *testing.T, s *Service, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		if j.State.terminal() {
			t.Fatalf("job %s settled %s (err %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func submitPoints(t *testing.T, s *Service, tenant string, points int) Job {
	t.Helper()
	j, err := s.Submit(tenant, 0, json.RawMessage(fmt.Sprintf(`{"points":%d}`, points)))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

func TestJobRunsToDone(t *testing.T) {
	exec := &fakeExec{}
	s := openTestService(t, t.TempDir(), exec)
	defer s.Close()

	j := submitPoints(t, s, "alice", 4)
	got := waitState(t, s, j.ID, StateDone)
	if got.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", got.Completed)
	}
	rs, err := s.Results(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("Results len = %d, want 4", len(rs))
	}
	for i, r := range rs {
		if r.Point != i {
			t.Fatalf("result %d has point %d, want sorted by point", i, r.Point)
		}
		want := fmt.Sprintf(`{"point":%d,"val":%d}`, i, i*i)
		if string(r.Result) != want {
			t.Fatalf("result %d = %s, want %s", i, r.Result, want)
		}
	}
}

// TestResumeRunsOnlyPendingPoints is the checkpoint contract: kill the
// service mid-job, reopen the same state dir, and the resumed job must
// execute exactly the unjournaled points while the merged results match
// an uninterrupted run byte for byte.
func TestResumeRunsOnlyPendingPoints(t *testing.T) {
	dir := t.TempDir()
	const points = 6

	// Phase 1: run with a gate, release exactly 3 points, then close the
	// service mid-job (close cancels; the job stays resumable).
	exec1 := &fakeExec{gate: make(chan struct{})}
	s1 := openTestService(t, dir, exec1)
	j := submitPoints(t, s1, "alice", points)
	for i := 0; i < 3; i++ {
		exec1.gate <- struct{}{}
	}
	// Wait for the three results to be checkpointed before closing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jj, _ := s1.Get(j.ID)
		if jj.Completed >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never checkpointed 3 points (at %d)", jj.Completed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()

	// Phase 2: reopen. The job replays as queued, dispatches, and must
	// run only the pending points.
	exec2 := &fakeExec{}
	s2 := openTestService(t, dir, exec2)
	defer s2.Close()
	got := waitState(t, s2, j.ID, StateDone)
	if got.Completed != points {
		t.Fatalf("resumed Completed = %d, want %d", got.Completed, points)
	}
	ran := exec2.executed()
	if len(ran) != points-3 {
		t.Fatalf("resume executed %d points %v, want %d (only pending)", len(ran), ran, points-3)
	}
	seen := map[int]bool{0: true, 1: true, 2: true}
	for _, p := range ran {
		if seen[p] {
			t.Fatalf("resume re-ran point %d (executed %v)", p, ran)
		}
		seen[p] = true
	}

	// Byte-identical merge: compare against an uninterrupted run of the
	// same spec in a fresh service.
	rs, err := s2.Results(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	fresh := openTestService(t, t.TempDir(), &fakeExec{})
	defer fresh.Close()
	fj := submitPoints(t, fresh, "alice", points)
	waitState(t, fresh, fj.ID, StateDone)
	frs, err := fresh.Results(fj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := golden.Diff(frs, rs); d != "" {
		t.Fatalf("resumed results differ from fresh run (recorded: fresh, got: resumed):%s", d)
	}
}

// TestTwoTenantsAlternate pins round-robin fairness: with one active
// slot, tenant A's deep backlog cannot starve tenant B.
func TestTwoTenantsAlternate(t *testing.T) {
	exec := &fakeExec{gate: make(chan struct{})}
	s := openTestService(t, t.TempDir(), exec)
	defer s.Close()

	// Tenant A floods 3 jobs before B submits 2; every job is 1 point.
	var order []string
	var mu sync.Mutex
	ids := make(map[string]string) // job id -> tenant
	for i := 0; i < 3; i++ {
		j := submitPoints(t, s, "alice", 1)
		ids[j.ID] = "alice"
	}
	for i := 0; i < 2; i++ {
		j := submitPoints(t, s, "bob", 1)
		ids[j.ID] = "bob"
	}
	// Record the tenant of whichever job is running each time we release
	// a point.
	for i := 0; i < 5; i++ {
		var running Job
		deadline := time.Now().Add(10 * time.Second)
		for {
			found := false
			for _, j := range s.List() {
				if j.State == StateRunning {
					running, found = j, true
					break
				}
			}
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no running job while %d releases remain", 5-i)
			}
			time.Sleep(2 * time.Millisecond)
		}
		mu.Lock()
		order = append(order, ids[running.ID])
		mu.Unlock()
		exec.gate <- struct{}{}
		waitState(t, s, running.ID, StateDone)
	}
	// Both tenants queued from the start: strict alternation until bob
	// drains (alice bob alice bob alice).
	want := []string{"alice", "bob", "alice", "bob", "alice"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("run order by tenant = %v, want %v", order, want)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	exec := &fakeExec{gate: make(chan struct{})}
	s := openTestService(t, t.TempDir(), exec)
	defer s.Close()

	running := submitPoints(t, s, "alice", 3)
	queued := submitPoints(t, s, "alice", 3)
	waitState(t, s, running.ID, StateRunning)

	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if j, _ := s.Get(queued.ID); j.State != StateCanceled {
		t.Fatalf("queued job after cancel = %s, want canceled", j.State)
	}
	exec.gate <- struct{}{} // let one point finish, then cancel mid-run
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := s.Get(running.ID)
		if j.State == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job state = %s, want canceled", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel("j-999999"); err == nil {
		t.Fatal("Cancel(unknown) = nil, want error")
	}
}

func TestFailedExecutorMarksJobFailed(t *testing.T) {
	exec := &fakeExec{failAfter: 2}
	s := openTestService(t, t.TempDir(), exec)
	defer s.Close()
	j := submitPoints(t, s, "alice", 5)
	deadline := time.Now().Add(10 * time.Second)
	for {
		jj, _ := s.Get(j.ID)
		if jj.State == StateFailed {
			if jj.Completed != 2 {
				t.Fatalf("failed job Completed = %d, want 2", jj.Completed)
			}
			if !strings.Contains(jj.Error, "synthetic failure") {
				t.Fatalf("failed job Error = %q", jj.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state = %s, want failed", jj.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	exec := &fakeExec{}
	s := openTestService(t, t.TempDir(), exec, func(c *Config) { c.Token = "hunter2" })
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	do := func(method, path, token string, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Auth: missing and wrong tokens get 401 on every route.
	for _, token := range []string{"", "wrong"} {
		for _, probe := range [][2]string{
			{"POST", "/v1/jobs"}, {"GET", "/v1/jobs"}, {"GET", "/v1/jobs/j-000001"},
		} {
			resp := do(probe[0], probe[1], token, `{}`)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s with token %q: status %d, want 401", probe[0], probe[1], token, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}

	// Submit.
	resp := do("POST", "/v1/jobs", "hunter2", `{"tenant":"alice","spec":{"points":3}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.ID == "" || j.Points != 3 || j.Tenant != "alice" {
		t.Fatalf("submit returned %+v", j)
	}

	// Stream until the terminal status record.
	resp = do("GET", "/v1/jobs/"+j.ID+"/stream", "hunter2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var results, statuses int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch rec.Type {
		case "result":
			results++
		case "status":
			statuses++
			if rec.State != StateDone {
				t.Fatalf("terminal status = %s, want done", rec.State)
			}
		}
	}
	resp.Body.Close()
	if results != 3 || statuses != 1 {
		t.Fatalf("stream saw %d results, %d statuses; want 3 and 1", results, statuses)
	}

	// Status and results.
	resp = do("GET", "/v1/jobs/"+j.ID, "hunter2", "")
	json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if j.State != StateDone || j.Completed != 3 {
		t.Fatalf("status after stream = %+v", j)
	}
	resp = do("GET", "/v1/jobs/"+j.ID+"/results", "hunter2", "")
	var rs []PointResult
	json.NewDecoder(resp.Body).Decode(&rs)
	resp.Body.Close()
	if len(rs) != 3 {
		t.Fatalf("results len = %d, want 3", len(rs))
	}

	// Unknown job is 404; bad spec is 400; cancel is idempotent-ish.
	resp = do("GET", "/v1/jobs/j-999999", "hunter2", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do("POST", "/v1/jobs", "hunter2", `{"spec":{"points":0}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do("DELETE", "/v1/jobs/"+j.ID, "hunter2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel done job status = %d, want 200 (no-op)", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTwoTenantsConcurrentSubmitProgress exercises concurrent HTTP
// submissions from two tenants; both must finish all their jobs.
func TestTwoTenantsConcurrentSubmitProgress(t *testing.T) {
	exec := &fakeExec{}
	s := openTestService(t, t.TempDir(), exec, func(c *Config) { c.MaxActive = 2 })
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const perTenant = 4
	var wg sync.WaitGroup
	idsCh := make(chan string, 2*perTenant)
	for _, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				body := fmt.Sprintf(`{"tenant":%q,"spec":{"points":2}}`, tenant)
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("%s submit: %v", tenant, err)
					return
				}
				var j Job
				json.NewDecoder(resp.Body).Decode(&j)
				resp.Body.Close()
				idsCh <- j.ID
			}
		}(tenant)
	}
	wg.Wait()
	close(idsCh)
	for id := range idsCh {
		j := waitState(t, s, id, StateDone)
		if j.Completed != 2 {
			t.Fatalf("job %s Completed = %d, want 2", id, j.Completed)
		}
	}
}

// TestTornLogLineSkipped pins crash tolerance: a partial trailing line in
// either artifact must not poison replay.
func TestTornLogLineSkipped(t *testing.T) {
	dir := t.TempDir()
	exec := &fakeExec{}
	s := openTestService(t, dir, exec)
	j := submitPoints(t, s, "alice", 2)
	waitState(t, s, j.ID, StateDone)
	s.Close()

	// Tear the tail of both files.
	for _, p := range []string{logPath(dir), journalPath(dir, j.ID)} {
		appendRaw(t, p, `{"truncated`)
	}
	s2 := openTestService(t, dir, &fakeExec{})
	defer s2.Close()
	got, err := s2.Get(j.ID)
	if err != nil {
		t.Fatalf("job lost after torn line: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("state after torn line = %s, want done", got.State)
	}
	rs, err := s2.Results(j.ID)
	if err != nil || len(rs) != 2 {
		t.Fatalf("Results after torn line = %v, %v; want 2 results", rs, err)
	}
}

func appendRaw(t *testing.T, path, line string) {
	t.Helper()
	f, err := openAppender(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.f.WriteString(line)
	f.mu.Unlock()
	f.close()
}

// TestSubscribeDuringCheckpointWindow attaches a stream in the window
// between a point's journal append and its publish: the append runs
// outside Service.mu, so the stream's replay already holds the point when
// the publish reaches it, and the point must still arrive once.
//
// The window is forced, not hoped for: the test holds Service.mu, lets the
// executor emit one point (its journal append completes, its publish
// blocks on the lock), and then unlocks and subscribes in one breath. With
// one P the blocked publisher cannot run between the Unlock and
// Subscribe's Lock; Completed still reading 0 after Subscribe proves the
// publish had not happened when the stream attached.
func TestSubscribeDuringCheckpointWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	exec := &fakeExec{gate: make(chan struct{})}
	s := openTestService(t, t.TempDir(), exec)
	defer s.Close()
	j := submitPoints(t, s, "a", 2)
	waitState(t, s, j.ID, StateRunning)

	s.mu.Lock()
	jr := s.journals[j.ID]
	exec.gate <- struct{}{}
	for deadline := time.Now().Add(10 * time.Second); jr.completed() != 1; {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("point 0 never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	sub, stop, err := s.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if got, err := s.Get(j.ID); err != nil || got.Completed != 0 {
		t.Fatalf("point 0 was published before the stream attached (completed %d, err %v): window not forced",
			got.Completed, err)
	}

	exec.gate <- struct{}{}
	seen := map[int]int{}
	for {
		rec, ok := sub.next()
		if !ok {
			break
		}
		if rec.Type == "result" {
			seen[*rec.Point]++
		}
	}
	if seen[0] != 1 || seen[1] != 1 || len(seen) != 2 {
		t.Errorf("stream delivered points %v (point: times), want points 0 and 1 once each", seen)
	}
}
