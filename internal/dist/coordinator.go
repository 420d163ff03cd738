package dist

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"
)

// Outcome is the terminal state of one task: its payload-encoded result,
// or the error that ended it (worker-side execution failure, requeue
// exhaustion, context cancellation, coordinator shutdown, ErrNoWorkers).
type Outcome struct {
	ID      int
	Payload []byte
	Err     error
}

// maxRequeues bounds how often one task is redistributed after worker
// losses before it fails with ErrWorkerLost.
const maxRequeues = 3

// Coordinator accepts worker connections and shards task payloads over
// them. One coordinator serves many sequential or concurrent runs (a
// saturation search issues one run per candidate wave) from one task queue,
// and workers may join or leave at any time: tasks in flight on a lost
// worker are requeued. A task no worker can take goes back to the caller
// (ErrNoWorkers): the coordinator only transports, it never executes.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	closed  bool
	seq     int // worker ids
	runSeq  int
	workers map[int]*remote
	runs    map[int]*run
	queue   []task        // undispatched tasks of every run, oldest first
	change  chan struct{} // closed+replaced on every registry, queue or slot change

	wg sync.WaitGroup // connection handlers and dispatchers, for Close
}

// task is one task of a run, as the queue holds it.
type task struct {
	r  *run
	id int
}

// Listen starts a coordinator on addr ("host:port"; ":0" picks a port).
func Listen(addr string, cfg Config) (*Coordinator, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		workers: make(map[int]*remote),
		runs:    make(map[int]*run),
		change:  make(chan struct{}),
	}
	go c.accept()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Workers returns the number of connected workers.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Capacity returns the total task slots across connected workers.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, w := range c.workers {
		total += w.capacity
	}
	return total
}

// WaitWorkers blocks until at least n workers are connected, ctx is done,
// or the coordinator closes (ErrClosed).
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if len(c.workers) >= n {
			c.mu.Unlock()
			return nil
		}
		ch := c.change
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops accepting workers, fails every active run's undelivered
// tasks with ErrClosed, and disconnects all workers.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := slices.Collect(maps.Values(c.workers))
	runs := slices.Collect(maps.Values(c.runs))
	c.bump()
	c.mu.Unlock()

	c.ln.Close()
	for _, r := range runs {
		r.fail(ErrClosed)
	}
	for _, w := range workers {
		// Best-effort goodbye so workers exit cleanly instead of
		// reporting a lost coordinator.
		w.send(&frame{Type: msgGoodbye}, c.cfg.HeartbeatInterval)
		w.conn.Close()
	}
	c.wg.Wait()
	return nil
}

// bump wakes WaitWorkers and the dispatchers after a worker joins or
// leaves, a task is queued or a slot frees. Callers hold c.mu.
func (c *Coordinator) bump() {
	close(c.change)
	c.change = make(chan struct{})
}

func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

// remote is one connected worker.
type remote struct {
	id       int
	conn     net.Conn
	capacity int // task slots, from the hello

	wmu sync.Mutex // serializes frame writes

	// Guarded by the coordinator's mu.
	inflight  map[[2]int]*run // {run, task} dispatched and unanswered; nil once dropped
	completed int64           // results of tasks dispatched here
	lastAt    time.Time       // last dispatch or result
}

func (w *remote) send(f *frame, timeout time.Duration) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(timeout))
	return writeFrame(w.conn, f)
}

// handle owns one worker connection from handshake to loss.
func (c *Coordinator) handle(conn net.Conn) {
	defer c.wg.Done()
	conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	hello, err := readFrame(conn)
	if err != nil || hello.Type != msgHello || hello.Capacity < 1 {
		conn.Close()
		return
	}
	if c.cfg.Token != "" &&
		subtle.ConstantTimeCompare([]byte(hello.Token), []byte(c.cfg.Token)) != 1 {
		// Reject with a goodbye whose Err is set: the worker surfaces it
		// as ErrUnauthorized instead of treating the close as a crash it
		// should reconnect through.
		c.cfg.logf("dist: rejected worker hello from %s: bad token", conn.RemoteAddr())
		conn.SetWriteDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		writeFrame(conn, &frame{Type: msgGoodbye, Err: ErrUnauthorized.Error()})
		conn.Close()
		return
	}
	w := &remote{
		conn:     conn,
		capacity: hello.Capacity,
		inflight: make(map[[2]int]*run),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.seq++
	w.id = c.seq
	c.workers[w.id] = w
	c.bump()
	c.wg.Add(1)
	c.mu.Unlock()

	c.cfg.logf("dist: worker %d joined from %s (capacity %d)", w.id, conn.RemoteAddr(), w.capacity)
	go c.dispatch(w)

	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		f, err := readFrame(conn)
		if err != nil {
			break
		}
		switch f.Type {
		case msgHeartbeat: // liveness is the read itself
		case msgResult:
			c.deliver(w, f)
		case msgSnapshot:
			c.deliverSnapshot(f)
		}
	}
	c.drop(w)
}

// dispatch is worker w's one writer of jobs and heartbeats: it sends the
// next queued task whenever w has a free slot, and a heartbeat each idle
// interval. A failed write closes the connection, so the read loop fails and
// drop requeues what was in flight. dispatch returns once w is dropped.
func (c *Coordinator) dispatch(w *remote) {
	defer c.wg.Done()
	beat := time.NewTicker(c.cfg.HeartbeatInterval)
	defer beat.Stop()
	for {
		c.mu.Lock()
		if c.workers[w.id] != w {
			c.mu.Unlock()
			return
		}
		f, ch := c.next(w), c.change
		c.mu.Unlock()
		if f == nil {
			select {
			case <-ch:
				continue
			case <-beat.C:
				f = &frame{Type: msgHeartbeat}
			}
		}
		if w.send(f, c.cfg.HeartbeatTimeout) != nil {
			w.conn.Close()
			return
		}
	}
}

// next pops the queue's first task whose run is still active and records it
// in flight on w, before its frame is written, so drop requeues it if the
// write fails. It returns nil when w has no free slot or no task is queued;
// tasks of ended (canceled or closed) runs are skipped. Callers hold c.mu.
func (c *Coordinator) next(w *remote) *frame {
	for len(w.inflight) < w.capacity && len(c.queue) > 0 {
		t := c.queue[0]
		c.queue[0] = task{}
		c.queue = c.queue[1:]
		if c.runs[t.r.id] == t.r {
			w.inflight[[2]int{t.r.id, t.id}] = t.r
			w.lastAt = time.Now()
			return &frame{Type: msgJob, Run: t.r.id, ID: t.id, Payload: t.r.tasks[t.id]}
		}
	}
	return nil
}

// deliver routes one worker result to its run and frees the slot. The
// worker's progress books are updated before the outcome is sent, so
// Progress is exact once a run's last outcome has arrived.
func (c *Coordinator) deliver(w *remote, f *frame) {
	key := [2]int{f.Run, f.ID}
	c.mu.Lock()
	if _, mine := w.inflight[key]; mine {
		delete(w.inflight, key)
		w.completed++
		w.lastAt = time.Now()
		c.bump()
	}
	r := c.runs[f.Run]
	c.mu.Unlock()
	if r == nil || f.ID < 0 || f.ID >= len(r.tasks) {
		return // run finished or canceled, or a malformed frame
	}
	var err error
	if f.Err != "" {
		err = errors.New(f.Err)
	}
	r.complete(f.ID, f.Payload, err)
}

// deliverSnapshot routes one mid-task snapshot blob to its run's stream
// callback. Snapshots of finished runs or already-completed tasks are
// stale and dropped: a task requeued after a worker loss restarts its
// stream from scratch on the new worker, and because a lost worker's
// connection goroutine has already returned before the requeue happens,
// the two attempts' snapshots can never interleave.
func (c *Coordinator) deliverSnapshot(f *frame) {
	c.mu.Lock()
	r := c.runs[f.Run]
	c.mu.Unlock()
	if r == nil || r.snap == nil || f.ID < 0 || f.ID >= len(r.tasks) {
		return
	}
	// The callback runs under the run lock: completion (which also takes
	// the lock, and only closes the outcome stream afterwards) cannot
	// finish the task — or the whole run — while a snapshot of it is
	// mid-delivery, so the embedding layer's sink is never invoked after
	// the run's stream has closed. Keep sinks fast: a slow one delays the
	// run's result delivery.
	r.mu.Lock()
	if !r.delivered[f.ID] {
		r.snap(f.ID, f.Payload)
	}
	r.mu.Unlock()
}

// WorkerProgress is one worker's execution state as the coordinator's
// dispatch records give it, stamped with its coordinator-assigned id and
// the time of its last dispatch or result (the root package's
// WorkerProgress is an alias of this type).
type WorkerProgress struct {
	// Worker is the coordinator-assigned worker id (stable for the
	// connection's lifetime).
	Worker int
	// Capacity is the worker's concurrent-task slot count (from its hello).
	Capacity int
	// Active counts tasks dispatched to the worker and not yet answered.
	Active int
	// Completed counts results the worker returned since it connected;
	// the delta between two polls over their wall-clock gap is the
	// worker's throughput.
	Completed int64
	// LastReport is the time of the worker's last dispatch or result
	// (zero until its first task is dispatched).
	LastReport time.Time
}

// Progress returns the progress of every connected worker, ordered by
// worker id, from the coordinator's own dispatch records: Capacity from the
// hello, Active the dispatched and unanswered tasks, Completed the results
// returned. A worker with no task dispatched yet has a zero LastReport.
func (c *Coordinator) Progress() []WorkerProgress {
	c.mu.Lock()
	out := make([]WorkerProgress, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerProgress{Worker: w.id, Capacity: w.capacity, Active: len(w.inflight),
			Completed: w.completed, LastReport: w.lastAt})
	}
	c.mu.Unlock()
	slices.SortFunc(out, func(a, b WorkerProgress) int { return a.Worker - b.Worker })
	return out
}

// drop unregisters a lost worker and requeues its in-flight tasks. The
// drop that removes the last worker also empties the queue into
// ErrNoWorkers outcomes. It does so under c.mu, the lock requeue checks
// for live workers under, so no task can be queued after that and left
// with no one to take it.
func (c *Coordinator) drop(w *remote) {
	w.conn.Close()
	c.mu.Lock()
	delete(c.workers, w.id)
	lost := w.inflight
	w.inflight = nil
	var orphans []task
	if len(c.workers) == 0 {
		orphans, c.queue = c.queue, nil
	}
	c.bump()
	c.mu.Unlock()

	c.cfg.logf("dist: worker %d lost, requeueing %d in-flight tasks", w.id, len(lost))
	for _, t := range orphans {
		t.r.complete(t.id, nil, ErrNoWorkers)
	}
	for k, r := range lost {
		r.requeue(k[1])
	}
}

// run is one distribution of a task batch.
type run struct {
	id    int
	c     *Coordinator
	tasks [][]byte
	snap  func(id int, snapshot []byte)

	out chan Outcome // buffered len(tasks): completes never block

	mu        sync.Mutex
	delivered []bool
	requeues  []int
	remaining int

	stop func() bool // unregisters the cancel hook on ctx
}

// Run distributes one batch of task payloads and streams exactly one
// Outcome per task, in completion order (consumers reorder by ID); the
// channel closes after the last. Cancellation of ctx fails every unfinished
// task with ctx.Err() immediately and tells workers to abort. With no worker
// connected Run returns ErrNoWorkers; a task left without one mid-run
// completes with ErrNoWorkers, unexecuted, for the caller to run itself.
//
// onSnapshot (nil drops them) receives every snapshot blob a worker emits
// for task id (RunFunc's emit), in emission order and before the task's
// Outcome, on that worker's connection goroutine: keep it fast and safe for
// concurrent use. A task requeued after a worker loss restarts its stream.
func (c *Coordinator) Run(ctx context.Context, tasks [][]byte, onSnapshot func(id int, snapshot []byte)) (<-chan Outcome, error) {
	if len(tasks) == 0 {
		out := make(chan Outcome)
		close(out)
		return out, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if len(c.workers) == 0 {
		return nil, ErrNoWorkers
	}
	c.runSeq++
	r := &run{
		id:        c.runSeq,
		c:         c,
		tasks:     tasks,
		snap:      onSnapshot,
		out:       make(chan Outcome, len(tasks)),
		delivered: make([]bool, len(tasks)),
		requeues:  make([]int, len(tasks)),
		remaining: len(tasks),
	}
	c.runs[r.id] = r
	// Queued under c.mu: a drop of the last worker hands all of them back.
	for i := range tasks {
		c.queue = append(c.queue, task{r, i})
	}
	c.bump()
	r.stop = context.AfterFunc(ctx, func() { r.cancel(ctx.Err()) })
	return r.out, nil
}

// complete records the terminal outcome of one task, exactly once. The
// send happens under the run lock — out is buffered one slot per task,
// so it never blocks — which orders every send before the close issued
// by whichever completer brings remaining to zero.
func (r *run) complete(id int, payload []byte, err error) {
	r.mu.Lock()
	if r.delivered[id] {
		r.mu.Unlock()
		return
	}
	r.delivered[id] = true
	r.remaining--
	last := r.remaining == 0
	r.out <- Outcome{ID: id, Payload: payload, Err: err}
	r.mu.Unlock()
	if last {
		r.end()
	}
}

// end retires the run once its last task completes: unregister it (the
// dispatchers skip its queued tasks from then on), drop the cancel hook,
// close the stream.
func (r *run) end() {
	r.c.mu.Lock()
	delete(r.c.runs, r.id)
	r.c.mu.Unlock()
	r.stop()
	close(r.out)
}

// fail terminates every unfinished task with err.
func (r *run) fail(err error) {
	for id := range r.tasks {
		r.complete(id, nil, err)
	}
}

// requeue puts a task lost with its worker back at the tail of the queue
// while some worker is connected to take it, and hands it back to the
// caller as ErrNoWorkers otherwise; the check and the append happen
// together under c.mu (see drop). A task whose requeue budget is spent
// fails with ErrWorkerLost.
func (r *run) requeue(id int) {
	r.mu.Lock()
	if r.delivered[id] {
		r.mu.Unlock()
		return
	}
	r.requeues[id]++
	attempts := r.requeues[id]
	r.mu.Unlock()
	if attempts > maxRequeues {
		r.c.cfg.logf("dist: task %d of run %d abandoned after %d dispatch attempts", id, r.id, attempts)
		r.complete(id, nil, fmt.Errorf("%w: task %d abandoned after %d dispatch attempts",
			ErrWorkerLost, id, attempts))
		return
	}
	c := r.c
	c.mu.Lock()
	if len(c.workers) > 0 {
		c.queue = append(c.queue, task{r, id})
		c.bump()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	r.complete(id, nil, ErrNoWorkers)
}

// cancel runs when the run's ctx is done: it fails every unfinished task
// with the ctx's error, then tells the workers to abort the run's in-flight
// jobs. Failing first keeps a worker's answer to the abort (its own
// "context canceled" text) from settling a task ahead of ctx.Err().
func (r *run) cancel(err error) {
	r.fail(err)
	r.c.mu.Lock()
	workers := slices.Collect(maps.Values(r.c.workers))
	r.c.mu.Unlock()
	for _, w := range workers {
		w.send(&frame{Type: msgCancel, Run: r.id}, r.c.cfg.HeartbeatTimeout)
	}
}
