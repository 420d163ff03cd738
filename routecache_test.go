package stringfigure

import (
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/netsim"
	"repro/internal/traffic"
)

// These tests pin the route cache a Network shares across its gate-free
// sessions (each epoch's routes): whatever the cache holds — nothing, the
// fills of earlier sessions, the racing fills of concurrent ones — a
// session's bytes are those of the same session on a freshly built network,
// and every reconfiguration publishes an epoch with an empty cache.

// routeCacheCfg loads the network enough that packets queue at their
// sources: first hops meet ports over the adaptive threshold, so both the
// cached and the full-candidate branch of the first-hop decision run.
var routeCacheCfg = SessionConfig{Rate: 0.15, Warmup: 200, Measure: 800, Seed: 5,
	FlowBuckets: 4, TraceSampleEvery: 16}

// sessionRun runs one session with a telemetry sink and returns its Result
// and snapshot stream. It reports errors with t.Error so it can run off the
// test goroutine.
func sessionRun(t *testing.T, net *Network, cfg SessionConfig) sessionOutput {
	t.Helper()
	var out sessionOutput
	cfg = cfg.WithTelemetry(256, func(s TelemetrySnapshot) { out.Snaps = append(out.Snaps, s) })
	res, err := net.NewSession(cfg).Run(SyntheticWorkload{Pattern: "uniform"})
	if err != nil {
		t.Errorf("session: %v", err)
	}
	out.Result = res
	return out
}

// TestRouteCacheInvalidation walks one network through every
// reconfiguration — GateOff, GateOn, SetMounted — and a gate-rig (ChurnTrace)
// session, which must mutate nothing (it gates a private engine copy),
// with a gate-free session after each, and compares every session with
// the same one on a network built fresh and put into the same state,
// whose cache is empty. An epoch that kept its predecessor's cache would
// serve the old topology's ports.
func TestRouteCacheInvalidation(t *testing.T) {
	const nodes = 32
	mounted := make([]bool, nodes)
	for i := range mounted {
		mounted[i] = i != 3 && i != 4 && i != 20
	}
	churn := routeCacheCfg
	churn.Scenario = []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 300, Node: 8, On: false})}

	steps := []struct {
		name   string
		mutate func(*Network) error // applied to the long-lived network before the session
		state  func(*Network) error // brings a fresh network to the same state
		cfg    SessionConfig
	}{
		{"cold", nil, nil, routeCacheCfg},
		{"warm", nil, nil, routeCacheCfg},
		{"gate-off", func(n *Network) error { return n.GateOff(5) },
			func(n *Network) error { return n.GateOff(5) }, routeCacheCfg},
		{"gate-on", func(n *Network) error { return n.GateOn(5) }, nil, routeCacheCfg},
		{"set-mounted", func(n *Network) error { return n.SetMounted(mounted) },
			func(n *Network) error { return n.SetMounted(mounted) }, routeCacheCfg},
		{"gate-rig", nil, func(n *Network) error { return n.SetMounted(mounted) }, churn},
		{"after-gate-rig", nil, func(n *Network) error { return n.SetMounted(mounted) }, routeCacheCfg},
	}
	net := mustNet(t, "sf", nodes)
	for _, st := range steps {
		if st.mutate != nil {
			if err := st.mutate(net); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		got := sessionRun(t, net, st.cfg)
		fresh := mustNet(t, "sf", nodes)
		if st.state != nil {
			if err := st.state(fresh); err != nil {
				t.Fatalf("%s: fresh network: %v", st.name, err)
			}
		}
		want := sessionRun(t, fresh, st.cfg)
		if d := golden.Diff(want, got); d != "" {
			t.Errorf("%s: session on the long-lived network differs from a fresh network in the same state (recorded: fresh, got: long-lived):%s",
				st.name, d)
		}
	}
}

// TestConcurrentSessionsShareColdRouteCache runs distinct gate-free
// sessions concurrently on one network whose cache starts empty, so their
// fills race, and requires each to equal its serial run on a fresh network.
// Uniform traffic sends every session toward every destination, so the
// sessions' misses add up on the same per-destination counters and cross
// each column-fill threshold together; the counters must show every column
// filled exactly once. On sf a gated (ChurnTrace) session runs beside them
// on the same epoch: it reconfigures its own engine copy and
// simulates without the cache, so it changes neither the others' bytes nor
// the fill counts. It runs under -race in CI.
func TestConcurrentSessionsShareColdRouteCache(t *testing.T) {
	for _, design := range []string{"sf", "s2", "fb"} {
		cfgs := make([]SessionConfig, 6)
		for i := range cfgs {
			cfgs[i] = routeCacheCfg
			cfgs[i].Seed = int64(100 + i)
			cfgs[i].Rate = 0.05 * float64(1+i%3)
			cfgs[i].referenceCore = i == len(cfgs)-1 // one session that never touches the cache
		}
		if design == "sf" {
			gated := routeCacheCfg
			gated.Seed = 106
			gated.Scenario = []ScenarioSpec{ChurnTrace(GateEvent{Cycle: 300, Node: 8})}
			cfgs = append(cfgs, gated)
		}
		want := make([]sessionOutput, len(cfgs))
		for i := range cfgs {
			want[i] = sessionRun(t, mustNet(t, design, 32), cfgs[i])
		}
		net := mustNet(t, design, 32)
		got := make([]sessionOutput, len(cfgs))
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = sessionRun(t, net, cfgs[i])
			}()
		}
		wg.Wait()
		for i := range cfgs {
			if d := golden.Diff(want[i], got[i]); d != "" {
				t.Errorf("%s session %d: concurrent run on a shared cold cache differs from its serial run (recorded: serial, got: concurrent):%s",
					design, i, d)
			}
		}
		if design == "fb" {
			continue // no greediest router: misses resolve pair by pair
		}
		if misses, fills := net.cur.Load().sim.Routes.Counts(); fills != 32 {
			t.Errorf("%s: %d column fills after %d misses on the shared cache, want one per destination (32)", design, fills, misses)
		}
	}
}

// epochSimStats runs, on the network's current epoch, the simulator a
// gate-free uniform session of cfg builds — the epoch's template and
// shared route cache, the session's injector, Warmup+Measure cycles — and
// returns its engine counts, which no Result carries.
func epochSimStats(t *testing.T, net *Network, cfg SessionConfig) netsim.EngineStats {
	t.Helper()
	cfg = net.NewSession(cfg).Config()
	ep := net.cur.Load()
	simCfg := ep.simConfig(cfg, nil)
	simCfg.PacketFlits = cfg.PacketFlits
	sim, err := netsim.New(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	pat, err := traffic.NewPattern("uniform", net.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetPattern(cfg.Rate, net.newInjector(pat, &ep.alive).next)
	sim.Run(cfg.Warmup + cfg.Measure)
	return sim.Stats()
}

// TestEveryHopDesignsShareRouteCache covers the designs that route
// adaptively at every hop (dm, odm, afb): their gate-free sessions share
// the epoch's route cache for each hop's deterministic port and still
// check that port against the credit state of the moment. Concurrent
// sessions on one network must each equal their serial run on a fresh
// network, and a rerun of each session's simulator on the shared cache
// afterwards must find every decision its session made already filled:
// route hits and no miss. It runs under -race in CI.
func TestEveryHopDesignsShareRouteCache(t *testing.T) {
	for _, design := range []string{"dm", "odm", "afb"} {
		cfgs := make([]SessionConfig, 4)
		for i := range cfgs {
			cfgs[i] = routeCacheCfg
			cfgs[i].Seed = int64(200 + i)
			cfgs[i].Rate = 0.05 * float64(1+i%3)
		}
		want := make([]sessionOutput, len(cfgs))
		for i := range cfgs {
			want[i] = sessionRun(t, mustNet(t, design, 32), cfgs[i])
		}
		net := mustNet(t, design, 32)
		got := make([]sessionOutput, len(cfgs))
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = sessionRun(t, net, cfgs[i])
			}()
		}
		wg.Wait()
		for i := range cfgs {
			if d := golden.Diff(want[i], got[i]); d != "" {
				t.Errorf("%s session %d: concurrent run on the shared cache differs from its serial run (recorded: serial, got: concurrent):%s",
					design, i, d)
			}
			st := epochSimStats(t, net, cfgs[i])
			if st.RouteHits == 0 || st.RouteMisses != 0 {
				t.Errorf("%s session %d: rerun on the shared cache made %d hits and %d misses, want hits and no miss",
					design, i, st.RouteHits, st.RouteMisses)
			}
		}
	}
}
