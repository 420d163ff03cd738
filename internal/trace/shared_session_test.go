package trace_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	stringfigure "repro"
	"repro/internal/golden"
	"repro/internal/trace"
)

// TestSessionResultIndependentOfStore runs one closed-loop session per
// design with the store cold, warm from itself, and warm from the other
// design's session. The three Results must be byte-identical: a session
// that wrote its router remap or thread compression into the shared Ops
// would change what the next design replays.
func TestSessionResultIndependentOfStore(t *testing.T) {
	cfg := stringfigure.SessionConfig{Ops: 300, Sockets: 2, Window: 8, Threads: 4, Seed: 5}
	run := func(net *stringfigure.Network) stringfigure.Result {
		t.Helper()
		res, err := net.NewSession(cfg).Run(stringfigure.TraceWorkload{Workload: "redis"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// afb concentrates several memory nodes on a router, so its remap
	// differs from sf's at the same node count.
	nets := map[string]*stringfigure.Network{}
	for _, kind := range []string{"sf", "afb"} {
		net, err := stringfigure.New(stringfigure.WithDesign(kind), stringfigure.WithNodes(64), stringfigure.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		nets[kind] = net
	}
	cold := map[string]stringfigure.Result{}
	for kind, net := range nets {
		trace.ResetSharedForTest()
		cold[kind] = run(net)
		if d := golden.Diff(cold[kind], run(net)); d != "" {
			t.Errorf("%s: warm store changed the result (recorded: cold, got: warm):%s", kind, d)
		}
	}
	if golden.Diff(cold["sf"], cold["afb"]) == "" {
		t.Fatal("the two designs produced one result; the test would prove nothing")
	}
	for _, order := range [][2]string{{"sf", "afb"}, {"afb", "sf"}} {
		trace.ResetSharedForTest()
		run(nets[order[0]])
		if d := golden.Diff(cold[order[1]], run(nets[order[1]])); d != "" {
			t.Errorf("%s after %s filled the store: result differs from its cold run:%s", order[1], order[0], d)
		}
	}
}

// TestCancelDuringSynthesis cancels a cold 4-socket session about 5 ms in,
// while its sockets' traces are being synthesized in parallel. The run must
// return context.Canceled, no socket worker may outlive it, the store may
// hold only whole traces, and a rerun must be byte-identical to a cold run.
func TestCancelDuringSynthesis(t *testing.T) {
	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := stringfigure.SessionConfig{Ops: 400, Sockets: 4, Window: 8, Threads: 4, Seed: 11}
	run := func(ctx context.Context) (stringfigure.Result, error) {
		return net.NewSession(cfg).RunContext(ctx, stringfigure.TraceWorkload{Workload: "kmeans"})
	}
	trace.ResetSharedForTest()
	cold, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	trace.ResetSharedForTest()
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	_, err = run(ctx)
	timer.Stop()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled 5 ms in: err = %v, want context.Canceled", err)
	}
	// A finished goroutine may still be counted for a moment after its
	// deferred Done ran.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the cancelled run, %d before", n, goroutines)
	}
	if err := trace.CheckSharedWholeForTest(); err != nil {
		t.Errorf("after the cancelled run: %v", err)
	}

	rerun, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := golden.Diff(cold, rerun); d != "" {
		t.Errorf("rerun after a cancelled session differs from the cold run (recorded: cold, got: rerun):%s", d)
	}
}
