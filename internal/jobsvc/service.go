package jobsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Executor is the embedding layer's execution engine, payload-agnostic
// from this package's point of view.
type Executor interface {
	// Plan validates a submitted spec and returns how many points it
	// sweeps. Called once at submission; an error rejects the job.
	Plan(spec json.RawMessage) (points int, err error)
	// Run executes the pending points of a job (their original indices
	// into the full point set — a resumed job's pending list is a strict
	// subset). It must call emit.Result exactly once per pending point
	// that completes, with a deterministic JSON encoding: resumed runs
	// merge journaled and fresh results byte-for-byte. Telemetry records
	// are optional and best-effort. Run returns when every pending point
	// has been emitted, or with the error that stopped it (ctx.Err()
	// after cancellation).
	Run(ctx context.Context, spec json.RawMessage, pending []int, emit Emitter) error
}

// Emitter carries the Executor's output callbacks. Both are safe for
// concurrent use and cheap; Result checkpoints synchronously (journal
// append), Telemetry only fans out to live stream subscribers.
type Emitter struct {
	Result    func(point int, result json.RawMessage)
	Telemetry func(record json.RawMessage)
}

// Config configures a Service.
type Config struct {
	// StateDir holds the durable queue and checkpoint journals; it is
	// created if missing. Two services must not share one.
	StateDir string
	// Executor runs the jobs.
	Executor Executor
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// Token guards the HTTP surface: requests must present it as
	// `Authorization: Bearer <token>`. Empty accepts everything.
	Token string
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// ErrUnknownJob reports an id no job carries.
var ErrUnknownJob = errors.New("jobsvc: unknown job")

// subscriber is one live stream consumer: a bounded drop-oldest backlog
// drained by the HTTP handler (or a test), so a stalled consumer can
// never block checkpointing. The results endpoint is the authoritative,
// lossless view.
type subscriber struct {
	mu      sync.Mutex
	cond    *sync.Cond
	backlog []StreamRecord
	closed  bool
	// replayed is the number of journal records the replay carried; it is
	// set before the subscriber is registered and read under Service.mu.
	replayed int
}

const subBacklogCap = 4096

func newSubscriber() *subscriber {
	s := &subscriber{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *subscriber) push(rec StreamRecord) {
	s.mu.Lock()
	if !s.closed {
		if len(s.backlog) >= subBacklogCap {
			s.backlog = s.backlog[1:]
		}
		s.backlog = append(s.backlog, rec)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// next blocks for the next record; ok is false once the stream is closed
// and drained.
func (s *subscriber) next() (StreamRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.backlog) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.backlog) == 0 {
		return StreamRecord{}, false
	}
	rec := s.backlog[0]
	s.backlog = s.backlog[1:]
	return rec, true
}

func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Service is the persistent job coordinator. Open one over a state
// directory, submit jobs (directly or over HTTP via Handler), and Close
// it to stop; reopening the same directory resumes unfinished work.
type Service struct {
	cfg Config
	log *appender

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	jobs       map[string]*Job
	seq        int
	active     int
	lastTenant string // round-robin cursor over tenants
	journals   map[string]*journal
	cancels    map[string]context.CancelFunc
	canceled   map[string]bool // user-requested cancels of running jobs
	subs       map[string]map[*subscriber]struct{}
	served     map[string]int64 // per-tenant points checkpointed this process
	closed     bool
}

// Open replays the state directory and starts the scheduler. Jobs that
// were queued or running when the previous coordinator stopped are
// dispatched again, with their checkpointed points skipped.
func Open(cfg Config) (*Service, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("jobsvc: Config.StateDir required")
	}
	if cfg.Executor == nil {
		return nil, fmt.Errorf("jobsvc: Config.Executor required")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("jobsvc: state dir: %w", err)
	}
	jobs, seq, err := replayLog(cfg.StateDir)
	if err != nil {
		return nil, fmt.Errorf("jobsvc: replay job log: %w", err)
	}
	log, err := openAppender(logPath(cfg.StateDir), 1)
	if err != nil {
		return nil, fmt.Errorf("jobsvc: open job log: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		log:      log,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     jobs,
		seq:      seq,
		journals: make(map[string]*journal),
		cancels:  make(map[string]context.CancelFunc),
		canceled: make(map[string]bool),
		subs:     make(map[string]map[*subscriber]struct{}),
		served:   make(map[string]int64),
	}
	// Completed counts surface in job status; derive them from the
	// journals once at open (running jobs keep theirs live).
	resumed := 0
	for _, j := range s.jobs {
		if rs, err := readJournal(cfg.StateDir, j.ID); err == nil {
			j.Completed = len(rs)
		}
		if j.State == StateQueued {
			resumed++
		}
	}
	if resumed > 0 {
		cfg.Logf("jobsvc: resuming %d pending job(s) from %s", resumed, cfg.StateDir)
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// Submit plans and enqueues one job, returning its status snapshot. An
// empty tenant submits as "default".
func (s *Service) Submit(tenant string, priority int, spec json.RawMessage) (Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	points, err := s.cfg.Executor.Plan(spec)
	if err != nil {
		return Job{}, fmt.Errorf("jobsvc: plan: %w", err)
	}
	if points <= 0 {
		return Job{}, fmt.Errorf("jobsvc: spec plans %d points", points)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, fmt.Errorf("jobsvc: service closed")
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		Tenant:    tenant,
		Priority:  priority,
		Spec:      append(json.RawMessage(nil), spec...),
		Points:    points,
		State:     StateQueued,
		Submitted: time.Now().UTC(),
		seq:       s.seq,
	}
	if err := s.log.append(logRecord{
		Op: "submit", ID: j.ID, Tenant: j.Tenant, Priority: j.Priority,
		Points: j.Points, Spec: j.Spec, At: j.Submitted,
	}); err != nil {
		return Job{}, fmt.Errorf("jobsvc: journal submit: %w", err)
	}
	s.jobs[j.ID] = j
	s.cfg.Logf("jobsvc: %s submitted by %q (%d points, priority %d)", j.ID, tenant, points, priority)
	s.dispatchLocked()
	return j.clone(), nil
}

// Get returns a job's status snapshot.
func (s *Service) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.clone(), nil
}

// List returns every job in submission order.
func (s *Service) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// Cancel stops a job: queued jobs turn canceled immediately, running jobs
// are interrupted (their checkpoints remain — a canceled job's partial
// results stay readable). Terminal jobs are left as they are.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch j.State {
	case StateQueued:
		s.setStateLocked(j, StateCanceled, "")
		s.closeSubsLocked(j)
	case StateRunning:
		s.canceled[id] = true
		if cancel := s.cancels[id]; cancel != nil {
			cancel()
		}
	}
	return nil
}

// Results returns a job's checkpointed results ordered by point index —
// partial while the job runs, complete once it is done. The bytes of
// each result are exactly as the Executor emitted them.
func (s *Service) Results(id string) ([]PointResult, error) {
	s.mu.Lock()
	j := s.jobs[id]
	jr := s.journals[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	var rs []PointResult
	if jr != nil {
		rs = jr.snapshot()
	} else {
		var err error
		if rs, err = readJournal(s.cfg.StateDir, id); err != nil {
			return nil, err
		}
	}
	sortByPoint(rs)
	return rs, nil
}

// Subscribe attaches a live stream to a job: journaled results replay
// first (in arrival order), then live result/telemetry records, then one
// terminal status record, after which next returns ok=false. Stop
// releases the subscription. Streams are best-effort under backpressure
// (bounded drop-oldest backlog); Results is the lossless view.
func (s *Service) Subscribe(id string) (sub *subscriber, stop func(), err error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	sub = newSubscriber()
	var replay []PointResult
	if jr := s.journals[id]; jr != nil {
		replay = jr.snapshot()
	} else if rs, jerr := readJournal(s.cfg.StateDir, id); jerr == nil {
		replay = rs
	}
	sub.replayed = len(replay)
	terminal := j.State.terminal()
	state, jerrText, completed, points := j.State, j.Error, j.Completed, j.Points
	if !terminal {
		if s.subs[id] == nil {
			s.subs[id] = make(map[*subscriber]struct{})
		}
		s.subs[id][sub] = struct{}{}
	}
	s.mu.Unlock()

	// Replay is pushed outside the lock. Journal appends do not take s.mu,
	// so a point can be journaled before the snapshot above and published
	// (under s.mu) only after the registration: it is in the replay and
	// would arrive live as well, which is why the publisher drops results
	// whose arrival index the replay covers (sub.replayed). A point
	// journaled after the snapshot has a larger index and arrives live,
	// once. A live record published before this loop finishes lands ahead
	// of the replay in the backlog.
	for _, r := range replay {
		p := r.Point
		sub.push(StreamRecord{Type: "result", Point: &p, Result: r.Result})
	}
	if terminal {
		sub.push(StreamRecord{Type: "status", State: state, Error: jerrText,
			Completed: completed, Points: points})
		sub.close()
	}
	return sub, func() {
		s.mu.Lock()
		if set := s.subs[id]; set != nil {
			delete(set, sub)
		}
		s.mu.Unlock()
		sub.close()
	}, nil
}

// Close stops the scheduler, interrupts running jobs (they stay
// "running" in the log and resume from their checkpoints on the next
// Open), flushes the journals and returns once every job goroutine has
// exited.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.mu.Lock()
	for id, jr := range s.journals {
		jr.close()
		delete(s.journals, id)
	}
	for _, set := range s.subs {
		for sub := range set {
			sub.close()
		}
	}
	s.log.close()
	s.mu.Unlock()
	return nil
}

// setStateLocked logs and applies one state transition. Callers hold s.mu.
func (s *Service) setStateLocked(j *Job, state State, errText string) {
	now := time.Now().UTC()
	if err := s.log.append(logRecord{Op: "state", ID: j.ID, State: state, Error: errText, At: now}); err != nil {
		s.cfg.Logf("jobsvc: %s: journal state %s: %v", j.ID, state, err)
	}
	j.State = state
	j.Error = errText
	if state.terminal() {
		j.Finished = now
	}
}

// closeSubsLocked pushes the terminal status record and closes every
// subscriber of job j. Callers hold s.mu.
func (s *Service) closeSubsLocked(j *Job) {
	for sub := range s.subs[j.ID] {
		sub.push(StreamRecord{Type: "status", State: j.State, Error: j.Error,
			Completed: j.Completed, Points: j.Points})
		sub.close()
	}
	delete(s.subs, j.ID)
}

// publishLocked fans one record to job id's subscribers. Callers hold s.mu.
func (s *Service) publishLocked(id string, rec StreamRecord) {
	for sub := range s.subs[id] {
		sub.push(rec)
	}
}

// dispatchLocked starts queued jobs while active slots remain, picking
// tenants round-robin (the cursor walks the sorted distinct tenant list
// cyclically) and, within a tenant, the highest-priority earliest
// submission. Callers hold s.mu.
func (s *Service) dispatchLocked() {
	if s.closed {
		return
	}
	for s.active < s.cfg.MaxActive {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

// pickLocked implements the fairness policy: one queued job from the
// next tenant after the round-robin cursor.
func (s *Service) pickLocked() *Job {
	tenantSet := make(map[string]bool)
	for _, j := range s.jobs {
		if j.State == StateQueued {
			tenantSet[j.Tenant] = true
		}
	}
	if len(tenantSet) == 0 {
		return nil
	}
	tenants := make([]string, 0, len(tenantSet))
	for t := range tenantSet {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	// The next tenant strictly after the cursor, wrapping — so two
	// tenants submitting concurrently alternate regardless of queue
	// depth or submission order.
	pick := tenants[0]
	for _, t := range tenants {
		if t > s.lastTenant {
			pick = t
			break
		}
	}
	s.lastTenant = pick
	var best *Job
	for _, j := range s.jobs {
		if j.State != StateQueued || j.Tenant != pick {
			continue
		}
		if best == nil || j.Priority > best.Priority ||
			(j.Priority == best.Priority && j.seq < best.seq) {
			best = j
		}
	}
	return best
}

// startLocked transitions one queued job to running and launches its
// executor goroutine. Callers hold s.mu.
func (s *Service) startLocked(j *Job) {
	jr, err := openJournal(s.cfg.StateDir, j.ID)
	if err != nil {
		s.setStateLocked(j, StateFailed, fmt.Sprintf("open checkpoint journal: %v", err))
		s.closeSubsLocked(j)
		return
	}
	j.Completed = jr.completed()
	var pending []int
	for p := 0; p < j.Points; p++ {
		if !jr.has(p) {
			pending = append(pending, p)
		}
	}
	if len(pending) == 0 {
		jr.close()
		s.setStateLocked(j, StateDone, "")
		s.closeSubsLocked(j)
		return
	}
	s.setStateLocked(j, StateRunning, "")
	s.journals[j.ID] = jr
	ctx, cancel := context.WithCancel(s.ctx)
	s.cancels[j.ID] = cancel
	s.active++
	if j.Completed > 0 {
		s.cfg.Logf("jobsvc: %s resuming: %d of %d points checkpointed, running %d",
			j.ID, j.Completed, j.Points, len(pending))
	}
	s.wg.Add(1)
	go s.run(j, jr, pending, ctx, cancel)
}

// run executes one job's pending points and settles its terminal state.
func (s *Service) run(j *Job, jr *journal, pending []int, ctx context.Context, cancel context.CancelFunc) {
	defer s.wg.Done()
	defer cancel()
	emit := Emitter{
		Result: func(point int, result json.RawMessage) {
			seq, fresh, err := jr.record(PointResult{Point: point, Result: result})
			if err != nil {
				s.cfg.Logf("jobsvc: %s: checkpoint point %d: %v", j.ID, point, err)
				return
			}
			if !fresh {
				return
			}
			p := point
			s.mu.Lock()
			j.Completed++
			s.served[j.Tenant]++
			// The journal append above ran outside the lock, so a stream
			// attached since then has this point in its replay already.
			rec := StreamRecord{Type: "result", Point: &p, Result: result}
			for sub := range s.subs[j.ID] {
				if seq >= sub.replayed {
					sub.push(rec)
				}
			}
			s.mu.Unlock()
		},
		Telemetry: func(record json.RawMessage) {
			s.mu.Lock()
			s.publishLocked(j.ID, StreamRecord{Type: "telemetry", Telemetry: record})
			s.mu.Unlock()
		},
	}
	err := s.cfg.Executor.Run(ctx, j.Spec, pending, emit)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	delete(s.cancels, j.ID)
	delete(s.journals, j.ID)
	userCanceled := s.canceled[j.ID]
	delete(s.canceled, j.ID)
	jr.close()

	switch {
	case s.closed && !userCanceled:
		// Coordinator shutdown, not a verdict on the job: leave the last
		// logged state ("running", which replays as queued) so the next
		// Open resumes from the checkpoints.
		j.State = StateQueued
	case userCanceled:
		s.setStateLocked(j, StateCanceled, "")
		s.cfg.Logf("jobsvc: %s canceled (%d of %d points checkpointed)", j.ID, j.Completed, j.Points)
	case err != nil:
		s.setStateLocked(j, StateFailed, err.Error())
		s.cfg.Logf("jobsvc: %s failed: %v", j.ID, err)
	case jr.completed() != j.Points:
		s.setStateLocked(j, StateFailed,
			fmt.Sprintf("executor completed %d of %d points", jr.completed(), j.Points))
	default:
		s.setStateLocked(j, StateDone, "")
		s.cfg.Logf("jobsvc: %s done (%d points)", j.ID, j.Points)
	}
	if j.State.terminal() {
		s.closeSubsLocked(j)
	}
	s.dispatchLocked()
}
