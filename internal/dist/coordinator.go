package dist

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sort"
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
// saturation search issues one run per candidate wave), and workers may
// join or leave at any time: joining workers pick up pending tasks of
// active runs, and tasks in flight on a lost worker are requeued. A task
// no worker can take goes back to the caller (ErrNoWorkers): the
// coordinator only transports, it never executes.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	closed  bool
	seq     int // worker ids
	runSeq  int
	workers map[int]*remote
	runs    map[int]*run
	change  chan struct{} // closed+replaced on every registry change

	wg sync.WaitGroup // connection handlers, for Close
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
		total += cap(w.sem)
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
	workers := make([]*remote, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	runs := make([]*run, 0, len(c.runs))
	for _, r := range c.runs {
		runs = append(runs, r)
	}
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

// bump wakes WaitWorkers after a registry change. Callers hold c.mu.
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
	id   int
	conn net.Conn
	sem  chan struct{} // occupied task slots; cap is the hello capacity
	dead chan struct{} // closed when the worker is lost

	wmu sync.Mutex // serializes frame writes

	imu       sync.Mutex
	inflight  map[[2]int]struct{} // {run, task} dispatched and unanswered
	completed int64               // results of tasks dispatched here
	lastAt    time.Time           // last dispatch or result
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
		sem:      make(chan struct{}, hello.Capacity),
		dead:     make(chan struct{}),
		inflight: make(map[[2]int]struct{}),
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
	active := make([]*run, 0, len(c.runs))
	for _, r := range c.runs {
		active = append(active, r)
	}
	c.bump()
	c.mu.Unlock()

	c.cfg.logf("dist: worker %d joined from %s (capacity %d)", w.id, conn.RemoteAddr(), cap(w.sem))

	// A joining worker immediately pumps every active run.
	for _, r := range active {
		go r.pump(w)
	}

	hbStop := make(chan struct{})
	go func() {
		t := time.NewTicker(c.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if w.send(&frame{Type: msgHeartbeat}, c.cfg.HeartbeatTimeout) != nil {
					conn.Close() // unblocks the read loop below
					return
				}
			case <-hbStop:
				return
			}
		}
	}()

	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		f, err := readFrame(conn)
		if err != nil {
			break
		}
		switch f.Type {
		case msgHeartbeat:
			// Liveness is the read itself; nothing to do.
		case msgResult:
			c.deliver(w, f)
		case msgSnapshot:
			c.deliverSnapshot(f)
		}
	}
	close(hbStop)
	c.drop(w)
}

// deliver routes one worker result to its run and releases the slot. The
// worker's progress books are updated before the outcome is sent, so
// Progress is exact once a run's last outcome has arrived.
func (c *Coordinator) deliver(w *remote, f *frame) {
	key := [2]int{f.Run, f.ID}
	w.imu.Lock()
	_, mine := w.inflight[key]
	if mine {
		delete(w.inflight, key)
		w.completed++
		w.lastAt = time.Now()
	}
	w.imu.Unlock()
	if mine {
		<-w.sem
	}
	c.mu.Lock()
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

// WorkerProgress is one worker's progress, stamped with its
// coordinator-assigned id and the time of its last dispatch or result (the
// root package's WorkerProgress is an alias of this type).
type WorkerProgress struct {
	// Worker is the coordinator-assigned worker id (stable for the
	// connection's lifetime).
	Worker int
	// Progress holds Capacity, Active and Completed.
	Progress
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
		w.imu.Lock()
		p := Progress{Capacity: cap(w.sem), Active: len(w.inflight), Completed: w.completed}
		out = append(out, WorkerProgress{Worker: w.id, Progress: p, LastReport: w.lastAt})
		w.imu.Unlock()
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// drop unregisters a lost worker and requeues its in-flight tasks. The
// drop that removes the last worker also drains every active run's pending
// queue into ErrNoWorkers outcomes. It does so under c.mu, the lock every
// enqueue checks for live workers under, so no task id can be queued after
// the drain and left with no one to take it.
func (c *Coordinator) drop(w *remote) {
	w.conn.Close()
	c.mu.Lock()
	delete(c.workers, w.id)
	runsByID := make(map[int]*run, len(c.runs))
	var orphans [][2]int // {run, task} drained from pending
	for id, r := range c.runs {
		runsByID[id] = r
		if len(c.workers) == 0 {
			for _, task := range r.drain() {
				orphans = append(orphans, [2]int{id, task})
			}
		}
	}
	c.bump()
	c.mu.Unlock()
	close(w.dead)

	w.imu.Lock()
	keys := make([][2]int, 0, len(w.inflight))
	for k := range w.inflight {
		keys = append(keys, k)
	}
	w.inflight = nil // pumps racing a send now requeue themselves
	w.imu.Unlock()
	c.cfg.logf("dist: worker %d lost, requeueing %d in-flight tasks", w.id, len(keys))
	for _, k := range orphans {
		runsByID[k[0]].complete(k[1], nil, ErrNoWorkers)
	}
	for _, k := range keys {
		if r := runsByID[k[0]]; r != nil {
			r.requeue(k[1])
		}
	}
}

// run is one distribution of a task batch.
type run struct {
	id    int
	c     *Coordinator
	ctx   context.Context
	tasks [][]byte
	snap  func(id int, snapshot []byte)

	out     chan Outcome // buffered len(tasks): completes never block
	pending chan int     // undispatched task ids, buffered len(tasks)

	mu        sync.Mutex
	delivered []bool
	requeues  []int
	remaining int

	done   chan struct{}
	finish sync.Once
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
		ctx:       ctx,
		tasks:     tasks,
		snap:      onSnapshot,
		out:       make(chan Outcome, len(tasks)),
		pending:   make(chan int, len(tasks)),
		delivered: make([]bool, len(tasks)),
		requeues:  make([]int, len(tasks)),
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	c.runs[r.id] = r
	// Queued under c.mu: a drop of the last worker drains all of them.
	for i := range tasks {
		r.pending <- i
	}
	for _, w := range c.workers {
		go r.pump(w)
	}
	go r.watchCtx()
	return r.out, nil
}

// complete records the terminal outcome of one task, exactly once. The
// send happens under the run lock — out is buffered one slot per task,
// so it never blocks — which orders every send before the close issued
// by whichever completer drains remaining to zero.
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

// end retires the run: unregister, close the stream, release pumps.
func (r *run) end() {
	r.finish.Do(func() {
		r.c.mu.Lock()
		delete(r.c.runs, r.id)
		r.c.mu.Unlock()
		close(r.out)
		close(r.done)
	})
}

// fail terminates every unfinished task with err.
func (r *run) fail(err error) {
	for id := range r.tasks {
		r.complete(id, nil, err)
	}
}

// requeue puts a task lost with its worker back into the pending queue,
// or fails it once its requeue budget is spent.
func (r *run) requeue(id int) {
	r.mu.Lock()
	if r.delivered[id] {
		r.mu.Unlock()
		return
	}
	r.requeues[id]++
	exhausted := r.requeues[id] > maxRequeues
	r.mu.Unlock()
	if exhausted {
		r.c.cfg.logf("dist: task %d of run %d abandoned after %d dispatch attempts", id, r.id, r.requeues[id])
		r.complete(id, nil, fmt.Errorf("%w: task %d abandoned after %d dispatch attempts",
			ErrWorkerLost, id, r.requeues[id]))
		return
	}
	r.enqueue(id)
}

// enqueue is the one way a task id returns to the pending queue: there
// while some worker is connected to take it, handed back to the caller as
// ErrNoWorkers otherwise. The check and the push happen together under c.mu
// (see drop). The pending channel holds each task id at most once, so the
// len(tasks)-deep buffer never blocks.
func (r *run) enqueue(id int) {
	r.c.mu.Lock()
	if len(r.c.workers) > 0 {
		r.pending <- id
		r.c.mu.Unlock()
		return
	}
	r.c.mu.Unlock()
	r.complete(id, nil, ErrNoWorkers)
}

// drain empties the pending queue without blocking: the lost worker's own
// pumps may still be taking ids, and each of those returns through enqueue.
func (r *run) drain() (ids []int) {
	for {
		select {
		case id := <-r.pending:
			ids = append(ids, id)
		default:
			return ids
		}
	}
}

// pump feeds one worker: acquire a slot, pull a pending task, dispatch.
// One pump goroutine runs per (run, worker) pair; the per-worker slot
// semaphore arbitrates capacity across concurrent runs. A pump whose run
// has no pending work releases its slot while it waits, so a drained but
// unfinished run never parks capacity that a concurrent run could use.
func (r *run) pump(w *remote) {
	for {
		select {
		case w.sem <- struct{}{}:
		case <-w.dead:
			return
		case <-r.done:
			return
		}
		var id int
		select {
		case id = <-r.pending:
		default:
			// Nothing pending right now: give the slot back while idle.
			<-w.sem
			select {
			case id = <-r.pending:
			case <-w.dead:
				return
			case <-r.done:
				return
			}
			// Work arrived; reclaim a slot, but if the worker is now busy,
			// hand the task back (another worker may be free) and requeue
			// ourselves behind the semaphore instead of sitting on it.
			select {
			case w.sem <- struct{}{}:
			default:
				r.enqueue(id)
				continue
			}
		case <-w.dead:
			<-w.sem
			return
		case <-r.done:
			<-w.sem
			return
		}
		r.mu.Lock()
		stale := r.delivered[id]
		r.mu.Unlock()
		if stale {
			<-w.sem
			continue
		}
		key := [2]int{r.id, id}
		w.imu.Lock()
		if w.inflight == nil { // worker dropped between selects
			w.imu.Unlock()
			<-w.sem
			r.requeue(id)
			return
		}
		w.inflight[key] = struct{}{}
		w.lastAt = time.Now()
		w.imu.Unlock()
		if err := w.send(&frame{Type: msgJob, Run: r.id, ID: id, Payload: r.tasks[id]},
			r.c.cfg.HeartbeatTimeout); err != nil {
			// The read loop will notice the broken connection and drop the
			// worker; reclaim this dispatch ourselves in case drop already
			// drained the in-flight set.
			w.imu.Lock()
			_, mine := w.inflight[key]
			delete(w.inflight, key)
			w.imu.Unlock()
			w.conn.Close()
			if mine {
				r.requeue(id)
			}
			return
		}
	}
}

// watchCtx fails every unfinished task the moment ctx is canceled and
// tells workers to abort the run's in-flight jobs.
func (r *run) watchCtx() {
	select {
	case <-r.done:
		return
	case <-r.ctx.Done():
	}
	err := r.ctx.Err()
	r.c.mu.Lock()
	workers := make([]*remote, 0, len(r.c.workers))
	for _, w := range r.c.workers {
		workers = append(workers, w)
	}
	r.c.mu.Unlock()
	for _, w := range workers {
		w.send(&frame{Type: msgCancel, Run: r.id}, r.c.cfg.HeartbeatTimeout)
	}
	r.fail(err)
}
