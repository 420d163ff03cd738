package dist

import (
	"context"
	"errors"
	"testing"
	"time"
)

// serveWithCfg dials the coordinator and serves until Serve returns,
// reporting the terminal error.
func serveWithCfg(t *testing.T, c *Coordinator, cfg Config, run RunFunc) error {
	t.Helper()
	conn, err := Dial(context.Background(), c.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return Serve(context.Background(), conn, 1, run, cfg)
}

func TestAuthTokenRejectsBadAndMissing(t *testing.T) {
	cfg := testCfg()
	cfg.Token = "sekrit"
	c, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, token := range []string{"", "wrong"} {
		wcfg := testCfg()
		wcfg.Token = token
		err := serveWithCfg(t, c, wcfg, echoUpper)
		if !errors.Is(err, ErrUnauthorized) {
			t.Errorf("token %q: Serve returned %v, want ErrUnauthorized", token, err)
		}
	}
	if got := c.Workers(); got != 0 {
		t.Fatalf("rejected workers registered: Workers = %d, want 0", got)
	}
}

func TestAuthTokenAcceptsMatch(t *testing.T) {
	cfg := testCfg()
	cfg.Token = "sekrit"
	c, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wcfg := testCfg()
	wcfg.Token = "sekrit"
	done := make(chan error, 1)
	go func() { done <- serveWithCfg(t, c, wcfg, echoUpper) }()

	if err := c.WaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("authorized worker ended with %v, want nil (orderly goodbye)", err)
	}
}

func TestSnapQueueDropsOldestUnderBackpressure(t *testing.T) {
	q := newSnapQueue(3)
	for i := 0; i < 5; i++ {
		q.push(&frame{Type: msgSnapshot, ID: i})
	}
	// Capacity 3: frames 0 and 1 were dropped, 2..4 survive in order.
	for want := 2; want <= 4; want++ {
		f, done := q.pop()
		if f == nil || f.ID != want {
			t.Fatalf("pop = %+v, want ID %d", f, want)
		}
		done()
	}
	// flush returns immediately on an empty queue and after close.
	flushed := make(chan struct{})
	go func() { q.flush(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(time.Second):
		t.Fatal("flush hung on empty queue")
	}
	q.close()
	if f, _ := q.pop(); f != nil {
		t.Fatalf("pop after close = %+v, want nil", f)
	}
}

func TestSnapQueueFlushWaitsForDrain(t *testing.T) {
	q := newSnapQueue(8)
	q.push(&frame{Type: msgSnapshot, ID: 1})
	f, done := q.pop()
	if f == nil {
		t.Fatal("pop returned nil with a queued frame")
	}
	flushed := make(chan struct{})
	go func() { q.flush(); close(flushed) }()
	select {
	case <-flushed:
		t.Fatal("flush returned while a send was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	done()
	select {
	case <-flushed:
	case <-time.After(time.Second):
		t.Fatal("flush did not return after the in-flight send finished")
	}
}
