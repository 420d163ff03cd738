package stringfigure

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/routing"
)

func TestNewDefaults(t *testing.T) {
	net := mustNew(t, WithNodes(64))
	if net.Nodes() != 64 || net.Ports() != 4 || net.Spaces() != 2 {
		t.Errorf("defaults: nodes=%d ports=%d spaces=%d", net.Nodes(), net.Ports(), net.Spaces())
	}
	net2 := mustNew(t, WithNodes(256))
	if net2.Ports() != 8 {
		t.Errorf("256-node default ports = %d, want 8", net2.Ports())
	}
	if _, err := New(); err == nil {
		t.Error("Nodes required")
	}
}

func TestRouteAndMD(t *testing.T) {
	net := mustNew(t, WithNodes(40), WithSeed(2))
	path, err := net.Route(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 31 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// MD strictly decreases along the path.
	prev := net.MD(0, 31)
	for _, v := range path[1:] {
		cur := net.MD(v, 31)
		if cur >= prev {
			t.Fatalf("MD did not decrease at %d", v)
		}
		prev = cur
	}
}

// TestMDIsMinCircularDistance: MD asks the design's router, whose metric on
// s2 and the bidirectional sf design is the topology's minimum circular
// distance, bit for bit.
func TestMDIsMinCircularDistance(t *testing.T) {
	for _, kind := range []string{"s2", "sf"} {
		net := mustNew(t, WithDesign(kind), WithNodes(61), WithSeed(2))
		for u := 0; u < 61; u++ {
			for v := 0; v < 61; v++ {
				if got, want := net.MD(u, v), net.d.SF.MinCircularDistance(u, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: MD(%d,%d) = %v, MinCircularDistance %v", kind, u, v, got, want)
				}
			}
		}
	}
}

func TestCoordinatesExposed(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(1))
	for s := 0; s < net.Spaces(); s++ {
		c := net.Coordinate(s, 5)
		if c < 0 || c >= 1 {
			t.Errorf("coordinate out of range: %v", c)
		}
	}
}

func TestBoundsChecked(t *testing.T) {
	net := mustNew(t, WithNodes(16), WithSeed(1))
	// Out-of-range topology queries return zero values instead of panicking
	// through internal slices.
	for _, probe := range [][2]int{{-1, 3}, {9, 3}, {0, -1}, {0, 16}} {
		if c := net.Coordinate(probe[0], probe[1]); c != 0 {
			t.Errorf("Coordinate(%d,%d) = %v, want 0", probe[0], probe[1], c)
		}
	}
	if md := net.MD(-1, 5); md != 0 {
		t.Errorf("MD(-1,5) = %v, want 0", md)
	}
	if md := net.MD(5, 99); md != 0 {
		t.Errorf("MD(5,99) = %v, want 0", md)
	}
	if out := net.OutNeighbors(-3); out != nil {
		t.Errorf("OutNeighbors(-3) = %v, want nil", out)
	}
	if net.Alive(16) || net.Alive(-1) {
		t.Error("Alive out of range should be false")
	}
	if _, err := net.Route(-1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Route(-1,5) err = %v, want ErrOutOfRange", err)
	}
	if _, err := net.Route(0, 16); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Route(0,16) err = %v, want ErrOutOfRange", err)
	}
	if err := net.GateOff(99); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("GateOff(99) err = %v, want ErrOutOfRange", err)
	}
	if err := net.GateOn(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("GateOn(-1) err = %v, want ErrOutOfRange", err)
	}
}

func TestTypedErrors(t *testing.T) {
	net := mustNew(t, WithNodes(30), WithSeed(7))
	if err := net.GateOff(5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Route(5, 10); !errors.Is(err, ErrNodeDead) {
		t.Errorf("route from dead node err = %v, want ErrNodeDead", err)
	}
	if _, err := net.Route(10, 5); !errors.Is(err, ErrNodeDead) {
		t.Errorf("route to dead node err = %v, want ErrNodeDead", err)
	}
	sess := net.NewSession(SessionConfig{Ops: 200})
	if _, err := sess.Run(SyntheticWorkload{Pattern: "bogus"}); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("bogus pattern err = %v, want ErrUnknownPattern", err)
	}
	if _, err := sess.Run(TraceWorkload{Workload: "bogus"}); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("bogus workload err = %v, want ErrUnknownPattern", err)
	}
	// ErrNotRoutable is unreachable between alive routers of a healed
	// network; provoke it by blanking one routing table.
	net.cur.Load().net.Router.Tables[10] = &routing.Table{Node: 10}
	if _, err := net.Route(10, 20); !errors.Is(err, ErrNotRoutable) {
		t.Errorf("unroutable err = %v, want ErrNotRoutable", err)
	}
}

// TestOneRouterPerNetwork: reconfiguration never edits the design's
// router. An sf network's first epoch adopts the router the design built;
// GateOff publishes an epoch whose router is a copy, so every table of the
// design's router stays the one the build made, and Route and sessions
// read the published epoch's router.
func TestOneRouterPerNetwork(t *testing.T) {
	for _, opts := range [][]Option{nil, {Unidirectional()}, {NoShortcuts()}} {
		net := mustNew(t, append(opts, WithNodes(32), WithSeed(3))...)
		g, ok := net.d.Alg.(*routing.Greediest)
		if first := net.cur.Load().net.Router; !ok || g != first {
			t.Fatalf("%+v: design router %p, first epoch's router %p", net.d.Spec, net.d.Alg, first)
		}
		built := slices.Clone(g.Tables)
		if err := net.GateOff(5); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Tables, built) {
			t.Errorf("%+v: GateOff replaced tables of the design's router", net.d.Spec)
		}
		ep := net.cur.Load()
		if ep.net.Router == g {
			t.Fatalf("%+v: GateOff published the design's router", net.d.Spec)
		}
		if sc := ep.simConfig(net.NewSession(SessionConfig{}).Config(), nil); sc.Alg != ep.net.Router || sc.Routes != ep.sim.Routes {
			t.Errorf("%+v: a session simulates on router %p and cache %p, want the epoch's %p and %p",
				net.d.Spec, sc.Alg, sc.Routes, ep.net.Router, ep.sim.Routes)
		}
		// Blanking a table of the epoch's router is what Route must see.
		ep.net.Router.Tables[10] = &routing.Table{Node: 10}
		if _, err := net.Route(10, 20); !errors.Is(err, ErrNotRoutable) {
			t.Errorf("%+v: Route over a blanked epoch table: err = %v, want ErrNotRoutable", net.d.Spec, err)
		}
	}
}

// TestGateOffDoesNotWaitForRunningSessions: a reconfiguration publishes a
// new epoch without waiting for the sessions running on the old one, and
// they finish on the state they started with. The session's destination
// function gates node 5 off from inside the run and waits for GateOff to
// return; the session's Result must be that of the same session on a
// fresh network. It runs under -race in CI.
func TestGateOffDoesNotWaitForRunningSessions(t *testing.T) {
	// run runs one session whose first injection calls first.
	run := func(net *Network, first func()) Result {
		var once sync.Once
		res, err := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 200, Measure: 800, Seed: 3}).
			Run(FuncWorkload{Dest: func(_ int, rng *rand.Rand) (int, bool) {
				once.Do(first)
				return rng.Intn(32), true
			}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(mustNet(t, "sf", 32), func() {})
	net := mustNet(t, "sf", 32)
	got := run(net, func() {
		done := make(chan error, 1)
		go func() { done <- net.GateOff(5) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("GateOff: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("GateOff still waiting for the running session after 10 s")
		}
	})
	if d := golden.Diff(want, got); d != "" {
		t.Errorf("session during GateOff differs from the same session on a fresh network (recorded: fresh, got: gated mid-run):%s", d)
	}
	if net.Alive(5) {
		t.Error("node 5 alive after GateOff returned")
	}
}

func TestElasticScaling(t *testing.T) {
	net := mustNew(t, WithNodes(30), WithSeed(7))
	if err := net.GateOff(5); err != nil {
		t.Fatal(err)
	}
	if net.Alive(5) || net.AliveCount() != 29 {
		t.Error("gate off not applied")
	}
	if _, err := net.Route(5, 10); err == nil {
		t.Error("routing from a dead node should fail")
	}
	if _, err := net.Route(0, 10); err != nil {
		t.Errorf("routing among alive nodes failed: %v", err)
	}
	if err := net.GateOn(5); err != nil {
		t.Fatal(err)
	}
	st := net.ReconfigStats()
	if st.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2", st.Reconfigs)
	}

	mounted := make([]bool, 30)
	for i := 0; i < 20; i++ {
		mounted[i] = true
	}
	if err := net.SetMounted(mounted); err != nil {
		t.Fatal(err)
	}
	if net.AliveCount() != 20 {
		t.Errorf("AliveCount = %d, want 20", net.AliveCount())
	}
}

func TestPathLengths(t *testing.T) {
	net := mustNew(t, WithNodes(100), WithSeed(3))
	st := net.PathLengths(20)
	if st.Mean <= 0 || st.P90 < st.P10 || st.Diameter < st.P90 {
		t.Errorf("inconsistent path stats: %+v", st)
	}
}

func TestSimulateUniform(t *testing.T) {
	net := mustNew(t, WithNodes(32), WithSeed(4))
	res, err := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200, Seed: 5}).
		Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlocked at 5% load")
	}
	if res.Delivered == 0 || res.AvgLatencyNs <= 0 || res.AvgHops <= 0 {
		t.Errorf("bad results: %+v", res)
	}
	if res.P90LatencyNs < res.AvgLatencyNs/2 {
		t.Errorf("P90 (%v) implausibly below mean (%v)", res.P90LatencyNs, res.AvgLatencyNs)
	}
	if res.NetworkEnergyPJ <= 0 {
		t.Errorf("network energy not accounted: %+v", res)
	}
}

func TestSimulateAfterGating(t *testing.T) {
	net := mustNew(t, WithNodes(32), WithSeed(5))
	for _, v := range []int{3, 9, 21} {
		if err := net.GateOff(v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.NewSession(SessionConfig{Rate: 0.05, Warmup: 400, Measure: 1200, Seed: 6}).
		Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Delivered == 0 {
		t.Errorf("gated network unusable: %+v", res)
	}
}

func TestUnidirectionalVariant(t *testing.T) {
	net := mustNew(t, WithNodes(40), WithSeed(6), Unidirectional())
	if _, err := net.Route(1, 30); err != nil {
		t.Errorf("uni-directional routing failed: %v", err)
	}
}

func TestSaturationRateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	net := mustNew(t, WithNodes(16), WithSeed(1))
	sat, err := net.Saturation(SyntheticWorkload{Pattern: "uniform"}, SessionConfig{Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat > 1 {
		t.Errorf("saturation = %v", sat)
	}
}
