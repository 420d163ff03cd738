package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// RunFunc executes one task payload on the worker and returns the result
// payload. The context is canceled when the coordinator cancels the
// task's run or the worker shuts down.
//
// emit streams one mid-task snapshot blob back to the coordinator
// (msgSnapshot), tagged with the task's identity; the coordinator hands
// it to Run's snapshot callback. Sends are best-effort and decoupled from
// the caller through a bounded queue (snapshotQueue frames) that drops its
// oldest frames under backpressure, so a slow coordinator
// can never wedge a dense telemetry run; the queue is flushed before the
// task's result frame, so every snapshot that survives the queue is
// ordered before the task's outcome. Tasks without telemetry simply never
// call emit.
type RunFunc func(ctx context.Context, payload []byte, emit func(snapshot []byte)) ([]byte, error)

// Dial connects to a coordinator, retrying with exponential backoff and
// jitter for up to the retry budget (covering the common bring-up order
// where workers launch before the coordinator listens, and the
// reconnect-after-restart loop of long-lived fleets). Delays start at
// 100ms and double to a 2s cap, each drawn uniformly from [d/2, d) so a
// restarted coordinator is not hit by its whole fleet in one synchronized
// wave. retry <= 0 tries exactly once.
func Dial(ctx context.Context, addr string, retry time.Duration) (net.Conn, error) {
	var d net.Dialer
	deadline := time.Now().Add(retry)
	delay := 100 * time.Millisecond
	const maxDelay = 2 * time.Second
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if retry <= 0 || time.Now().After(deadline) {
			return nil, err
		}
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jittered):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// snapshotQueue bounds the worker's snapshot-forwarding buffer, in frames.
// When a slow or stalled coordinator lets it fill, the oldest frames are
// dropped so dense telemetry can never wedge a worker. Results are never
// queued or dropped.
const snapshotQueue = 256

// snapQueue is the worker's bounded snapshot-forwarding buffer: emits
// enqueue here and a single forwarder goroutine drains to the connection,
// so the simulating goroutine never blocks on a slow coordinator. When
// the queue is full the OLDEST frame is dropped (the newest state is the
// one worth keeping for live telemetry).
type snapQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*frame
	cap     int
	closed  bool
	sending bool // forwarder is mid-send; flush waits for it too
}

func newSnapQueue(cap int) *snapQueue {
	s := &snapQueue{cap: cap}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push enqueues one frame, dropping the oldest when full. Never blocks.
func (s *snapQueue) push(f *frame) {
	s.mu.Lock()
	if !s.closed {
		if len(s.q) >= s.cap {
			s.q = s.q[1:]
		}
		s.q = append(s.q, f)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// pop blocks until a frame is available or the queue closes (nil).
// The popped frame is marked in-flight until done() is called, so flush
// cannot return while a send is mid-write.
func (s *snapQueue) pop() (*frame, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.q) == 0 {
		return nil, nil
	}
	f := s.q[0]
	s.q = s.q[1:]
	s.sending = true
	return f, func() {
		s.mu.Lock()
		s.sending = false
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// flush blocks until every queued frame has been handed to the
// connection (or the queue closed). Result senders call it so a task's
// surviving snapshots always precede its outcome on the wire.
func (s *snapQueue) flush() {
	s.mu.Lock()
	for (len(s.q) > 0 || s.sending) && !s.closed {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// close releases poppers and flushers.
func (s *snapQueue) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Serve runs the worker side of the protocol on an established
// connection: announce capacity (and the auth token, if the coordinator
// requires one), then execute up to capacity jobs concurrently until the
// coordinator announces shutdown (returns nil — the normal end of
// service), ctx is canceled (returns ctx.Err()), or the connection is
// lost without a goodbye (returns an error, so supervisors can restart
// the worker). A goodbye carrying a rejection reason — a bad or missing
// auth token — returns ErrUnauthorized, which reconnect loops must treat
// as permanent. The connection is closed on return.
func Serve(parent context.Context, conn net.Conn, capacity int, run RunFunc, cfg Config) error {
	cfg.fill()
	if capacity < 1 {
		capacity = 1
	}
	defer conn.Close()

	var wmu sync.Mutex
	send := func(f *frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(cfg.HeartbeatTimeout))
		return writeFrame(conn, f)
	}
	if err := send(&frame{Type: msgHello, Capacity: capacity, Token: cfg.Token}); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	go func() {
		<-ctx.Done()
		conn.Close() // unblock the read loop
	}()
	go func() {
		t := time.NewTicker(cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if send(&frame{Type: msgHeartbeat}) != nil {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// Snapshot frames travel through a bounded drop-oldest queue drained
	// by one forwarder goroutine, decoupling the simulating task bodies
	// from the connection: a coordinator too slow to read telemetry costs
	// dropped snapshots, never a wedged worker.
	snaps := newSnapQueue(snapshotQueue)
	defer snaps.close()
	go func() {
		for {
			f, done := snaps.pop()
			if f == nil {
				return
			}
			send(f) // best-effort; a dead connection surfaces on the read loop
			done()
		}
	}()

	// In-flight jobs, keyed by {run, task} so a run-level cancel can abort
	// exactly its own jobs.
	var jmu sync.Mutex
	cancels := make(map[[2]int]context.CancelFunc)
	var jobs sync.WaitGroup

	for {
		conn.SetReadDeadline(time.Now().Add(cfg.HeartbeatTimeout))
		f, err := readFrame(conn)
		if err != nil {
			cancel()
			jobs.Wait()
			if parent.Err() != nil {
				return parent.Err() // the caller ended service
			}
			// No goodbye arrived: the coordinator crashed, timed out or the
			// network partitioned. Surface it so supervisors can restart.
			return fmt.Errorf("dist: connection to coordinator lost: %w", err)
		}
		switch f.Type {
		case msgGoodbye:
			cancel()
			jobs.Wait()
			if f.Err != "" {
				// The coordinator rejected this worker (bad auth token):
				// permanent, not the orderly shutdown a supervisor should
				// restart through.
				return fmt.Errorf("%w: %s", ErrUnauthorized, f.Err)
			}
			// Orderly coordinator shutdown: the normal end of service.
			return nil
		case msgHeartbeat:
			// Liveness is the read itself.
		case msgCancel:
			jmu.Lock()
			for key, jcancel := range cancels {
				if key[0] == f.Run {
					jcancel()
				}
			}
			jmu.Unlock()
		case msgJob:
			key := [2]int{f.Run, f.ID}
			jctx, jcancel := context.WithCancel(ctx)
			jmu.Lock()
			cancels[key] = jcancel
			jmu.Unlock()
			jobs.Add(1)
			go func(f *frame) {
				defer jobs.Done()
				// Snapshots ride the bounded queue; the flush before the
				// result frame below keeps every surviving emit ordered
				// ahead of the task's outcome.
				emit := func(snapshot []byte) {
					snaps.push(&frame{Type: msgSnapshot, Run: f.Run, ID: f.ID, Payload: snapshot})
				}
				payload, err := run(jctx, f.Payload, emit)
				jmu.Lock()
				delete(cancels, key)
				jmu.Unlock()
				jcancel()
				if ctx.Err() != nil {
					// The worker itself is shutting down (or the connection
					// is already gone): abandon the aborted job silently
					// instead of racing a spurious context-canceled result
					// against the connection close — the coordinator
					// declares this worker lost and requeues the task on a
					// survivor. A coordinator-initiated run cancel
					// (msgCancel) does not cancel ctx and still reports
					// normally.
					return
				}
				res := &frame{Type: msgResult, Run: f.Run, ID: f.ID, Payload: payload}
				if err != nil {
					res.Err = err.Error()
					res.Payload = nil
				}
				snaps.flush()
				if send(res) != nil {
					conn.Close() // result lost; force reconnect semantics
				}
			}(f)
		}
	}
}
