package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testCfg shrinks the heartbeat clock so loss detection is fast in tests.
func testCfg() Config {
	return Config{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Second}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*frame{
		{Type: msgHello, Capacity: 4},
		{Type: msgJob, Run: 3, ID: 17, Payload: []byte("payload bytes")},
		{Type: msgResult, Run: 3, ID: 17, Payload: []byte{0, 1, 2}, Err: "boom"},
		{Type: msgHeartbeat},
		{Type: msgCancel, Run: 9},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	for _, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame round-trip: got %+v, want %+v", got, want)
		}
	}
}

// TestFrameWireValues pins every frame type's number on the wire: a
// renumbered constant would make old and new peers misread each other.
// Type 7 (the retired worker progress report) stays reserved.
func TestFrameWireValues(t *testing.T) {
	got := []msgType{msgHello, msgJob, msgResult, msgHeartbeat, msgCancel, msgGoodbye, msgSnapshot}
	if want := []msgType{1, 2, 3, 4, 5, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("hello..goodbye, snapshot = %v, want %v", got, want)
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// startWorker serves a RunFunc against the coordinator over loopback and
// returns a stop function.
func startWorker(t *testing.T, c *Coordinator, capacity int, run RunFunc) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	conn, err := Dial(ctx, c.Addr(), time.Second)
	if err != nil {
		cancel()
		t.Fatalf("dial: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, conn, capacity, run, testCfg())
	}()
	return func() {
		cancel()
		<-done
	}
}

func echoUpper(ctx context.Context, payload []byte, _ func([]byte)) ([]byte, error) {
	return bytes.ToUpper(payload), nil
}

func collect(t *testing.T, out <-chan Outcome, n int) []Outcome {
	t.Helper()
	res := make([]Outcome, 0, n)
	timeout := time.After(30 * time.Second)
	for len(res) < n {
		select {
		case o, ok := <-out:
			if !ok {
				t.Fatalf("stream closed after %d of %d outcomes", len(res), n)
			}
			res = append(res, o)
		case <-timeout:
			t.Fatalf("timed out after %d of %d outcomes", len(res), n)
		}
	}
	if o, ok := <-out; ok {
		t.Fatalf("extra outcome after the last task: %+v", o)
	}
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	return res
}

func TestRunTwoWorkers(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop1 := startWorker(t, c, 2, echoUpper)
	defer stop1()
	stop2 := startWorker(t, c, 2, echoUpper)
	defer stop2()
	if err := c.WaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Capacity(); got != 4 {
		t.Errorf("Capacity = %d, want 4", got)
	}

	tasks := make([][]byte, 20)
	for i := range tasks {
		tasks[i] = []byte(fmt.Sprintf("task-%02d", i))
	}
	out, err := c.Run(context.Background(), tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range collect(t, out, len(tasks)) {
		if o.Err != nil {
			t.Fatalf("task %d: %v", i, o.Err)
		}
		want := strings.ToUpper(string(tasks[i]))
		if string(o.Payload) != want {
			t.Errorf("task %d payload = %q, want %q", i, o.Payload, want)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-out; ok {
		t.Fatal("empty batch produced an outcome")
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		if string(p) == "bad" {
			return nil, errors.New("task exploded")
		}
		return p, nil
	})
	defer stop()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background(), [][]byte{[]byte("ok"), []byte("bad")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := collect(t, out, 2)
	if res[0].Err != nil || string(res[0].Payload) != "ok" {
		t.Errorf("good task: %+v", res[0])
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "task exploded") {
		t.Errorf("bad task error not propagated: %+v", res[1])
	}
}

func TestWorkerLossRequeues(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Worker A runs alone and takes the poison task (the first task
	// dispatched); worker B joins while A holds it, then A crashes. Every
	// task, poison included, must complete through worker B.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	connA, err := Dial(ctxA, c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var poisoned atomic.Bool
	holding, crash := make(chan struct{}), make(chan struct{})
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		Serve(ctxA, connA, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
			if string(p) == "poison" && poisoned.CompareAndSwap(false, true) {
				close(holding)
				<-crash
				connA.Close() // simulate a crash mid-task
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return append([]byte("A:"), p...), nil
		}, testCfg())
	}()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	tasks := [][]byte{[]byte("poison"), []byte("t1"), []byte("t2"), []byte("t3")}
	out, err := c.Run(context.Background(), tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-holding
	stopB := startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		return append([]byte("B:"), p...), nil
	})
	defer stopB()
	if err := c.WaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	close(crash)

	res := collect(t, out, len(tasks))
	if res[0].Err != nil {
		t.Fatalf("poison task failed instead of requeueing: %v", res[0].Err)
	}
	if string(res[0].Payload) != "B:poison" {
		t.Errorf("poison task payload = %q, want completion by worker B", res[0].Payload)
	}
	for _, o := range res[1:] {
		if o.Err != nil {
			t.Errorf("task %d: %v", o.ID, o.Err)
		}
	}
	if !poisoned.Load() {
		t.Error("worker A never saw the poison task")
	}
}

func TestTotalLossReturnsTasksToCaller(t *testing.T) {
	cfg := testCfg()
	c, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No worker at all: the batch is refused whole.
	if _, err := c.Run(context.Background(), [][]byte{[]byte("x")}, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Run with no workers: err = %v, want ErrNoWorkers", err)
	}

	// One worker that dies on its first task: that task (in flight) and
	// the rest of the batch (pending) must all come back unexecuted.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	connA, err := Dial(ctxA, c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		Serve(ctxA, connA, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
			connA.Close()
			<-ctx.Done()
			return nil, ctx.Err()
		}, cfg)
	}()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	tasks := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	out, err := c.Run(context.Background(), tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range collect(t, out, len(tasks)) {
		if !errors.Is(o.Err, ErrNoWorkers) || o.Payload != nil {
			t.Errorf("task %d: outcome %+v, want ErrNoWorkers and no payload", o.ID, o)
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block := make(chan struct{})
	stop := startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		select {
		case <-block:
			return p, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer stop()
	defer close(block)
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	out, err := c.Run(ctx, [][]byte{[]byte("x"), []byte("y")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, o := range collect(t, out, 2) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("task %d err = %v, want context.Canceled", o.ID, o.Err)
		}
	}
}

func TestCloseFailsActiveRuns(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	stop := startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		select {
		case <-block:
			return p, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer stop()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background(), [][]byte{[]byte("x")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	o := <-out
	if !errors.Is(o.Err, ErrClosed) {
		t.Errorf("outcome err = %v, want ErrClosed", o.Err)
	}
	if _, err := c.Run(context.Background(), [][]byte{[]byte("x")}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Run on closed coordinator err = %v, want ErrClosed", err)
	}
	if err := c.WaitWorkers(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("WaitWorkers on closed coordinator err = %v, want ErrClosed", err)
	}
}

func TestLateJoinerPicksUpPendingWork(t *testing.T) {
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Start the run with one single-slot worker that blocks on its first
	// task, then join a second worker: the remaining tasks must drain
	// through the late joiner.
	firstBlocked := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	stop1 := startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		if first.CompareAndSwap(false, true) {
			close(firstBlocked)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return append([]byte("w1:"), p...), nil
	})
	defer stop1()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	tasks := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	out, err := c.Run(context.Background(), tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-firstBlocked
	stop2 := startWorker(t, c, 2, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
		return append([]byte("w2:"), p...), nil
	})
	defer stop2()
	// Unblock worker 1 once worker 2 has had a chance to drain the rest.
	go func() {
		c.WaitWorkers(context.Background(), 2)
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	fromW2 := 0
	for _, o := range collect(t, out, len(tasks)) {
		if o.Err != nil {
			t.Fatalf("task %d: %v", o.ID, o.Err)
		}
		if strings.HasPrefix(string(o.Payload), "w2:") {
			fromW2++
		}
	}
	if fromW2 == 0 {
		t.Error("late-joining worker processed no tasks")
	}
}

func TestServeDistinguishesShutdownFromLoss(t *testing.T) {
	// Orderly Close sends a goodbye: Serve returns nil.
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(context.Background(), c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(context.Background(), conn, 1, echoUpper, testCfg()) }()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after orderly Close = %v, want nil", err)
	}

	// A coordinator that vanishes without a goodbye (crash, partition) is
	// an error, so supervisors restart the worker.
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		cn, err := fake.Accept()
		if err == nil {
			accepted <- cn
		}
	}()
	conn2, err := Dial(context.Background(), fake.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go func() { served <- Serve(context.Background(), conn2, 1, echoUpper, testCfg()) }()
	cn := <-accepted
	if _, err := readFrame(cn); err != nil { // consume the hello
		t.Fatal(err)
	}
	cn.Close() // crash: no goodbye
	fake.Close()
	if err := <-served; err == nil || !strings.Contains(err.Error(), "lost") {
		t.Errorf("Serve after silent disconnect = %v, want connection-lost error", err)
	}
}

func TestDialRetryCoversLateCoordinator(t *testing.T) {
	// Reserve an address, start dialing before anything listens, then
	// bring the listener up: Dial must succeed within its retry budget.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	type dialRes struct {
		conn net.Conn
		err  error
	}
	got := make(chan dialRes, 1)
	go func() {
		conn, err := Dial(context.Background(), addr, 10*time.Second)
		got <- dialRes{conn, err}
	}()
	time.Sleep(300 * time.Millisecond)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	res := <-got
	if res.err != nil {
		t.Fatalf("Dial with retry failed: %v", res.err)
	}
	res.conn.Close()
}

func TestProgressFromDispatchRecords(t *testing.T) {
	// The coordinator keeps each worker's progress from its own dispatch
	// records, updated before a result's outcome is sent: right after a
	// run's last outcome the counters are exact, with no polling. Each task
	// also reads Progress while it runs, concurrently with other results.
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := startWorker(t, c, 2, func(ctx context.Context, p []byte, emit func([]byte)) ([]byte, error) {
		if ps := c.Progress(); len(ps) != 1 || ps[0].Active < 1 || ps[0].LastReport.IsZero() {
			return nil, fmt.Errorf("progress while a task runs: %+v", ps)
		}
		return echoUpper(ctx, p, emit)
	})
	defer stop()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Before any run, Progress lists the worker with its hello capacity.
	ps := c.Progress()
	if len(ps) != 1 || ps[0].Capacity != 2 || ps[0].Completed != 0 || !ps[0].LastReport.IsZero() {
		t.Fatalf("initial progress wrong: %+v", ps)
	}

	const tasks = 6
	payloads := make([][]byte, tasks)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("task-%d", i))
	}
	out, err := c.Run(context.Background(), payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range collect(t, out, tasks) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}

	ps = c.Progress()
	if len(ps) != 1 || ps[0].Completed != tasks || ps[0].Active != 0 || ps[0].LastReport.IsZero() {
		t.Fatalf("progress after the last outcome: %+v", ps)
	}
	if ps[0].Worker <= 0 || ps[0].Capacity != 2 {
		t.Errorf("final progress misattributed: %+v", ps[0])
	}
}

func TestOldWorkerProgressFramesIgnored(t *testing.T) {
	// A hand-rolled worker speaks the protocol as an old sfworker did,
	// sending a type-7 progress report (Active/Completed fields included)
	// before and after every task. The coordinator must keep it registered
	// and complete its runs. The worker sends no heartbeats, so the
	// coordinator waits longer for it.
	cfg := testCfg()
	cfg.HeartbeatTimeout = time.Minute
	c, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := Dial(context.Background(), c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Type: msgHello, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	go func() {
		var completed int64
		progress := func() {
			var body bytes.Buffer
			gob.NewEncoder(&body).Encode(struct {
				Type             msgType
				Capacity, Active int
				Completed        int64
			}{7, 1, 0, completed})
			binary.Write(conn, binary.BigEndian, uint32(body.Len()))
			conn.Write(body.Bytes())
		}
		for {
			f, err := readFrame(conn)
			if err != nil {
				return
			}
			if f.Type == msgJob {
				progress()
				writeFrame(conn, &frame{Type: msgResult, Run: f.Run, ID: f.ID, Payload: bytes.ToUpper(f.Payload)})
				completed++
				progress()
			}
		}
	}()
	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(context.Background(), [][]byte{[]byte("a"), []byte("b"), []byte("c")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range collect(t, out, 3) {
		if o.Err != nil || string(o.Payload) != strings.ToUpper(string(rune('a'+o.ID))) {
			t.Fatalf("outcome %+v", o)
		}
	}
	if ps := c.Progress(); len(ps) != 1 || ps[0].Completed != 3 || ps[0].Active != 0 {
		t.Fatalf("old worker not kept registered with its results counted: %+v", ps)
	}
}

func TestConcurrentRunsShareWorkerSlots(t *testing.T) {
	// Three runs share two workers at once and a fourth is canceled as it
	// is submitted: no worker ever runs more tasks at once than its
	// capacity, every live task returns its own payload, the canceled
	// run's outcomes are all context.Canceled, and no task stays active.
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	capacities := []int{2, 1}
	for i, capacity := range capacities {
		var running atomic.Int32 // this worker's executions right now
		defer startWorker(t, c, capacity, func(ctx context.Context, p []byte, emit func([]byte)) ([]byte, error) {
			if n := running.Add(1); n > int32(capacity) {
				t.Errorf("worker %d runs %d tasks at once, capacity %d", i, n, capacity)
			}
			defer running.Add(-1)
			time.Sleep(2 * time.Millisecond) // long enough for dispatches to overlap
			return echoUpper(ctx, p, emit)
		})()
	}
	if err := c.WaitWorkers(context.Background(), len(capacities)); err != nil {
		t.Fatal(err)
	}

	const runs, tasks = 3, 6
	canceled, cancel := context.WithCancel(context.Background())
	batches := make([][][]byte, runs+1)
	outs := make([]<-chan Outcome, runs+1)
	for r := range batches {
		ctx := context.Background()
		if r == runs {
			ctx = canceled
		}
		for i := 0; i < tasks; i++ {
			batches[r] = append(batches[r], []byte(fmt.Sprintf("run%d-task%d", r, i)))
		}
		if outs[r], err = c.Run(ctx, batches[r], nil); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	for r, out := range outs {
		for i, o := range collect(t, out, tasks) {
			if r == runs && !errors.Is(o.Err, context.Canceled) {
				t.Errorf("canceled run task %d err = %v, want context.Canceled", i, o.Err)
			} else if r < runs && (o.Err != nil || !bytes.Equal(o.Payload, bytes.ToUpper(batches[r][i]))) {
				t.Errorf("run %d task %d: outcome %+v", r, i, o)
			}
		}
	}
	// A canceled task may still be running; its worker answers it anyway.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ps := c.Progress(); ps[0].Active+ps[1].Active == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("tasks still active: %+v", ps)
		}
	}
}

func TestQueuedRunsStartNoGoroutines(t *testing.T) {
	// Runs queued behind busy workers wait as tasks in the coordinator's
	// queue: submitting one starts no goroutine.
	c, err := Listen("127.0.0.1:0", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const runs = 16
	started, release := make(chan struct{}, runs+2), make(chan struct{})
	for range 2 {
		defer startWorker(t, c, 1, func(ctx context.Context, p []byte, _ func([]byte)) ([]byte, error) {
			started <- struct{}{}
			<-release
			return p, nil
		})()
	}
	if err := c.WaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	outs := make([]<-chan Outcome, runs+1)
	if outs[runs], err = c.Run(context.Background(), [][]byte{{1}, {2}}, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	before := runtime.NumGoroutine()
	for i := range runs {
		if outs[i], err = c.Run(context.Background(), [][]byte{{3}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= runs {
		t.Errorf("%d queued runs started %d goroutines", runs, grew)
	}
	close(release)
	for i, out := range outs {
		collect(t, out, 1+i/runs) // the busy run, last, has two tasks
	}
}
