package dist

import (
	"errors"
	"time"
)

// msgType discriminates the wire messages of the coordinator/worker
// protocol.
type msgType uint8

const (
	// msgHello is the worker's first message after dialing: it announces
	// the worker's slot capacity (how many tasks it runs concurrently).
	msgHello msgType = iota + 1
	// msgJob carries one task payload from coordinator to worker.
	msgJob
	// msgResult carries one task outcome from worker to coordinator.
	msgResult
	// msgHeartbeat is the keepalive both sides send while idle; a peer
	// that stays silent past Config.HeartbeatTimeout is declared lost.
	msgHeartbeat
	// msgCancel tells the worker to abort every in-flight task of one run
	// (the coordinator's context was canceled).
	msgCancel
	// msgGoodbye announces an orderly coordinator shutdown, letting
	// workers distinguish it (clean exit) from a crash or partition
	// (error, so supervisors restart them).
	msgGoodbye
	// Type 7 is reserved: old workers send it as a progress report, which
	// coordinators ignore (per-worker progress comes from their own
	// dispatch records; the read itself still counts as liveness).
	_
	// msgSnapshot carries one mid-task telemetry blob from worker to
	// coordinator, tagged with the task's Run/ID so the coordinator can
	// demultiplex concurrent tasks. Like the task payloads themselves the
	// blob is opaque to this package (the embedding layer batches its
	// interval records into it). Snapshot frames for one task always
	// precede its msgResult on the wire, so a task's stream is complete
	// when its outcome arrives; coordinators that predate the frame ignore
	// it.
	msgSnapshot
)

// frame is the single envelope every wire message travels in. Fields are
// a union over the message types: Run/ID identify a task (msgJob,
// msgResult, msgSnapshot, msgCancel), Capacity rides on msgHello, Token
// carries the worker's auth secret on msgHello, Payload carries the task,
// result or snapshot blob, and Err transfers a worker-side execution
// error — or the coordinator's rejection reason on a msgGoodbye — as text
// (typed errors do not survive the wire).
type frame struct {
	Type     msgType
	Run      int
	ID       int
	Capacity int
	Token    string
	Payload  []byte
	Err      string
}

// Config tunes the transport. The zero value uses production defaults;
// tests shrink the intervals.
type Config struct {
	// HeartbeatInterval is how often each side sends a keepalive
	// (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent peer stays trusted before it
	// is declared lost (default 4x the interval).
	HeartbeatTimeout time.Duration
	// Token is the shared secret authenticating the worker socket. A
	// coordinator with a token rejects hellos that do not present it
	// (the worker's Serve returns ErrUnauthorized); an empty token
	// accepts every connection. Workers send Config.Token in their
	// hello.
	Token string
	// Logf, when set, receives the transport's operational log lines —
	// worker joins and losses, auth rejections, task requeues. nil is
	// silent (the historical behavior). Called from connection
	// goroutines: keep it fast and safe for concurrent use.
	Logf func(format string, args ...any)
}

// logf emits one operational log line when a logger is configured.
func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
}

// Sentinel errors of the transport layer. The root package wraps
// ErrWorkerLost and ErrClosed in its public ErrWorkerLost/ErrClusterClosed
// sentinels, and runs ErrNoWorkers tasks on its own pool.
var (
	// ErrClosed reports an operation on a closed coordinator.
	ErrClosed = errors.New("dist: coordinator closed")
	// ErrNoWorkers reports that no worker is connected to take a task: Run
	// returns it when a batch arrives with none, and a task left without
	// one mid-run (the last worker was lost) completes with it. The task
	// is handed back unexecuted; the caller runs it itself.
	ErrNoWorkers = errors.New("dist: no workers connected")
	// ErrWorkerLost reports a task abandoned after exhausting its requeue
	// budget across repeated worker losses.
	ErrWorkerLost = errors.New("dist: worker lost")
	// ErrUnauthorized reports a worker hello rejected by a coordinator
	// that requires an auth token the worker did not present. Permanent:
	// reconnect loops must not retry it.
	ErrUnauthorized = errors.New("dist: unauthorized")
)
