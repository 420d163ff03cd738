package stringfigure_test

// Per-design invariants through the public API: every design in Designs()
// must build deterministically, respect its port budget, be strongly
// connected at router level, account every memory node in the node→router
// map, and run through the same Session/Sweep/Saturation machinery.

import (
	"context"
	"errors"
	"testing"

	. "repro"
)

// adjacency snapshots the router-level out-adjacency via the public API.
func adjacency(net *Network) [][]int {
	out := make([][]int, net.Routers())
	for r := range out {
		out[r] = net.OutNeighbors(r)
	}
	return out
}

// stronglyConnected checks mutual reachability over an out-adjacency.
func stronglyConnected(out [][]int) bool {
	n := len(out)
	reach := func(adj [][]int) int {
		seen := make([]bool, n)
		queue := []int{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					count++
					queue = append(queue, v)
				}
			}
		}
		return count
	}
	rev := make([][]int, n)
	for u, nbrs := range out {
		for _, v := range nbrs {
			rev[v] = append(rev[v], u)
		}
	}
	return reach(out) == n && reach(rev) == n
}

func TestDesignInvariants(t *testing.T) {
	for _, kind := range Designs() {
		for _, n := range []int{16, 64} {
			net, err := New(WithDesign(kind), WithNodes(n), WithSeed(3))
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			if net.Design() != kind {
				t.Errorf("%s/%d: Design() = %q", kind, n, net.Design())
			}
			if net.Nodes() != n {
				t.Errorf("%s/%d: Nodes() = %d", kind, n, net.Nodes())
			}

			// Deterministic rebuild from the same seed.
			net2, err := New(WithDesign(kind), WithNodes(n), WithSeed(3))
			if err != nil {
				t.Fatalf("%s/%d rebuild: %v", kind, n, err)
			}
			out, out2 := adjacency(net), adjacency(net2)
			for r := range out {
				if len(out[r]) != len(out2[r]) {
					t.Fatalf("%s/%d: nondeterministic rebuild at router %d", kind, n, r)
				}
				for i := range out[r] {
					if out[r][i] != out2[r][i] {
						t.Fatalf("%s/%d: nondeterministic rebuild at router %d", kind, n, r)
					}
				}
			}

			// Port budget respected at every router.
			budget := net.PortBudget()
			if budget <= 0 {
				t.Fatalf("%s/%d: port budget %d", kind, n, budget)
			}
			for r := range out {
				if len(out[r]) > budget {
					t.Errorf("%s/%d: router %d degree %d exceeds budget %d",
						kind, n, r, len(out[r]), budget)
				}
			}

			// Strongly connected at router level.
			if !stronglyConnected(out) {
				t.Errorf("%s/%d: not strongly connected", kind, n)
			}

			// Node→router map totals: every node maps to a valid router, and
			// the router→nodes inverse accounts for each node exactly once.
			seen := make([]int, n)
			for r := 0; r < net.Routers(); r++ {
				for _, v := range net.RouterNodes(r) {
					if net.NodeRouter(v) != r {
						t.Errorf("%s/%d: RouterNodes(%d) lists node %d owned by router %d",
							kind, n, r, v, net.NodeRouter(v))
					}
					seen[v]++
				}
			}
			for v, c := range seen {
				if c != 1 {
					t.Errorf("%s/%d: node %d hosted %d times", kind, n, v, c)
				}
			}
			if net.NodeRouter(-1) != -1 || net.NodeRouter(n) != -1 {
				t.Errorf("%s/%d: NodeRouter out-of-range not -1", kind, n)
			}
		}
	}
}

func TestAllDesignsRunSessionsAndSweeps(t *testing.T) {
	cfg := SessionConfig{Rate: 0.05, Warmup: 200, Measure: 600, Seed: 2}
	for _, kind := range Designs() {
		net, err := New(WithDesign(kind), WithNodes(16), WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
		if err != nil {
			t.Fatalf("%s session: %v", kind, err)
		}
		if res.Delivered == 0 || res.Deadlocked {
			t.Errorf("%s session unusable: %+v", kind, res)
		}
		points := RateSweep(SyntheticWorkload{Pattern: "uniform"}, []float64{0.03, 0.06})
		for i, r := range net.SweepAll(cfg, points, 2) {
			if r.Err != nil {
				t.Errorf("%s sweep point %d: %v", kind, i, r.Err)
			}
		}
	}
}

func TestConcentratedTraceRun(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation")
	}
	// The FB design hosts several memory nodes per router; the closed-loop
	// trace path must route their pages at router granularity.
	net := mustNew(t, WithDesign("fb"), WithNodes(16), WithSeed(1))
	cfg := SessionConfig{Ops: 300, Sockets: 2, Window: 8, MaxCycles: 10_000_000, Seed: 1}
	res, err := net.NewSession(cfg).Run(TraceWorkload{Workload: "grep"})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.ReadsCompleted == 0 {
		t.Errorf("fb trace run idle: %+v", res)
	}
}

func TestRunContextCancellation(t *testing.T) {
	net := mustNew(t, WithNodes(32), WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Synthetic and trace runs must both honor a canceled context.
	sess := net.NewSession(SessionConfig{Rate: 0.1, Warmup: 100_000, Measure: 100_000, Seed: 1})
	if _, err := sess.RunContext(ctx, SyntheticWorkload{Pattern: "uniform"}); !errors.Is(err, context.Canceled) {
		t.Errorf("synthetic RunContext err = %v, want context.Canceled", err)
	}
	tr := net.NewSession(SessionConfig{Ops: 100_000, Seed: 1})
	if _, err := tr.RunContext(ctx, TraceWorkload{Workload: "grep"}); !errors.Is(err, context.Canceled) {
		t.Errorf("trace RunContext err = %v, want context.Canceled", err)
	}
}

func TestSweepContextCancellation(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points := RateSweep(SyntheticWorkload{Pattern: "uniform"},
		[]float64{0.05, 0.10, 0.15, 0.20})
	res := net.SweepAllContext(ctx, SessionConfig{Warmup: 50_000, Measure: 50_000, Seed: 1}, points, 2)
	if len(res) != len(points) {
		t.Fatalf("canceled sweep emitted %d results, want %d", len(res), len(points))
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("point %d err = %v, want context.Canceled", i, r.Err)
		}
	}
	// The canceled search must also surface the error, not a rate.
	if _, err := net.SaturationContext(ctx, SyntheticWorkload{Pattern: "uniform"},
		SessionConfig{Seed: 1}, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("SaturationContext err = %v, want context.Canceled", err)
	}
}

func TestBaselineDesignGuards(t *testing.T) {
	if _, err := New(WithDesign("bogus"), WithNodes(16)); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("unknown design err = %v, want ErrUnknownDesign", err)
	}
	dm := mustNew(t, WithDesign("dm"), WithNodes(16), WithSeed(1))
	if err := dm.GateOff(3); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("GateOff on dm err = %v, want ErrNotReconfigurable", err)
	}
	// S2 lacks reconfiguration support by definition (down-scaling it
	// requires regenerating the topology), even though it is built on the
	// same coordinate spaces as sf.
	s2 := mustNew(t, WithDesign("s2"), WithNodes(16), WithSeed(1))
	if err := s2.GateOff(3); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("GateOff on s2 err = %v, want ErrNotReconfigurable", err)
	}
	if s2.Spaces() == 0 || s2.MD(0, 5) <= 0 {
		t.Errorf("s2 coordinate surface missing: spaces=%d md=%v", s2.Spaces(), s2.MD(0, 5))
	}
	if err := dm.GateOn(3); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("GateOn on dm err = %v, want ErrNotReconfigurable", err)
	}
	if err := dm.SetMounted(make([]bool, 16)); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("SetMounted on dm err = %v, want ErrNotReconfigurable", err)
	}
	if !dm.Alive(3) || dm.AliveCount() != 16 {
		t.Error("baseline designs are always fully alive")
	}
	// Routing works at router granularity on every design.
	fb := mustNew(t, WithDesign("fb"), WithNodes(128), WithSeed(1))
	path, err := fb.Route(0, 127)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != fb.NodeRouter(0) || path[len(path)-1] != fb.NodeRouter(127) {
		t.Errorf("fb route endpoints %v not router-aligned", path)
	}
	if _, err := fb.Route(-1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("fb Route(-1,5) err = %v, want ErrOutOfRange", err)
	}
}
