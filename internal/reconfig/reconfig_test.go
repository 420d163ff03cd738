package reconfig

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

func deploy(t *testing.T, cfg topology.Config) *Network {
	t.Helper()
	sf, err := topology.NewStringFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(sf)
}

// routeAllAlive checks greedy delivery between every alive pair.
func routeAllAlive(t *testing.T, n *Network) {
	t.Helper()
	N := n.SF.Cfg.N
	for src := 0; src < N; src++ {
		if !n.Alive(src) {
			continue
		}
		for dst := 0; dst < N; dst++ {
			if src == dst || !n.Alive(dst) {
				continue
			}
			if _, err := n.Router.Route(src, dst); err != nil {
				t.Fatalf("route %d->%d failed: %v", src, dst, err)
			}
		}
	}
}

func TestFullScaleDeployment(t *testing.T) {
	n := deploy(t, topology.Config{N: 40, Ports: 4, Seed: 1, Shortcuts: true})
	if n.AliveCount() != 40 {
		t.Fatalf("AliveCount = %d, want 40", n.AliveCount())
	}
	if !n.Graph().StronglyConnected() {
		t.Fatal("full-scale network not strongly connected")
	}
	routeAllAlive(t, n)
}

func TestGateOffPreservesDelivery(t *testing.T) {
	n := deploy(t, topology.Config{N: 30, Ports: 4, Seed: 7, Shortcuts: true})
	for _, v := range []int{5, 12, 29} {
		if _, err := n.Gate(v, false); err != nil {
			t.Fatalf("gate off %d: %v", v, err)
		}
		routeAllAlive(t, n)
	}
	if n.AliveCount() != 27 {
		t.Errorf("AliveCount = %d, want 27", n.AliveCount())
	}
	if n.Stats.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3", n.Stats.Reconfigs)
	}
}

func TestGateOffAdjacentNodes(t *testing.T) {
	// Gating consecutive Space-0 ring neighbors exercises multi-node gap
	// healing (the 4-hop shortcut case).
	n := deploy(t, topology.Config{N: 24, Ports: 4, Seed: 3, Shortcuts: true})
	// Pick three consecutive nodes in space 0.
	a := n.SF.Order[0][4]
	b := n.SF.Order[0][5]
	c := n.SF.Order[0][6]
	for _, v := range []int{a, b, c} {
		if _, err := n.Gate(v, false); err != nil {
			t.Fatalf("gate off %d: %v", v, err)
		}
	}
	routeAllAlive(t, n)
	// The Space-0 ring over alive nodes must connect rank 3 to rank 7.
	u := n.SF.Order[0][3]
	w := n.SF.Order[0][7]
	if got := n.SF.Successor(0, u, n.AliveSlice()); got != w {
		t.Errorf("healed successor of %d = %d, want %d", u, got, w)
	}
}

func TestGateOnRestoresOriginalAdjacency(t *testing.T) {
	n := deploy(t, topology.Config{N: 25, Ports: 8, Seed: 11, Shortcuts: true})
	orig := make([][]int, 25)
	for v, nbrs := range n.OutNeighbors() {
		orig[v] = append([]int(nil), nbrs...)
	}
	for _, v := range []int{3, 17} {
		if _, err := n.Gate(v, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int{17, 3} {
		if _, err := n.Gate(v, true); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(orig, n.OutNeighbors()) {
		t.Error("gate off/on cycle did not restore the original adjacency")
	}
	routeAllAlive(t, n)
}

func TestGateOffErrors(t *testing.T) {
	n := deploy(t, topology.Config{N: 6, Ports: 4, Seed: 1})
	if _, err := n.Gate(-1, false); err == nil {
		t.Error("gating off node -1 should fail")
	}
	if _, err := n.Gate(6, false); err == nil {
		t.Error("gating off an out-of-range node should fail")
	}
	if _, err := n.Gate(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Gate(0, false); err == nil {
		t.Error("gating off a dead node should fail")
	}
	if _, err := n.Gate(1, true); err == nil {
		t.Error("gating on an alive node should fail")
	}
	// Gate down to two nodes, then refuse.
	for v := 1; v < 4; v++ {
		if _, err := n.Gate(v, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Gate(4, false); err == nil {
		t.Error("gating below two alive nodes should fail")
	}
}

func TestShortcutHealingAttribution(t *testing.T) {
	// Gate off many single nodes; at least some healings must ride the
	// pre-provisioned 2-hop shortcut wires.
	n := deploy(t, topology.Config{N: 60, Ports: 4, Seed: 2, Shortcuts: true})
	rng := rand.New(rand.NewSource(9))
	gated := 0
	for gated < 15 {
		v := rng.Intn(60)
		if !n.Alive(v) {
			continue
		}
		if _, err := n.Gate(v, false); err != nil {
			t.Fatal(err)
		}
		gated++
	}
	if n.Stats.HealedByShortcut == 0 {
		t.Errorf("no healing used shortcut wires (stats: %+v)", n.Stats)
	}
	routeAllAlive(t, n)
}

func TestStaticExpansionReduction(t *testing.T) {
	// Design reuse: fabricate for 48, deploy 32, later mount the rest.
	n := deploy(t, topology.Config{N: 48, Ports: 8, Seed: 5, Shortcuts: true})
	mask := make([]bool, 48)
	for i := 0; i < 32; i++ {
		mask[i] = true
	}
	if err := n.SetAlive(mask); err != nil {
		t.Fatal(err)
	}
	if n.AliveCount() != 32 {
		t.Fatalf("AliveCount = %d, want 32", n.AliveCount())
	}
	routeAllAlive(t, n)
	// Expansion: mount everything.
	for i := range mask {
		mask[i] = true
	}
	if err := n.SetAlive(mask); err != nil {
		t.Fatal(err)
	}
	routeAllAlive(t, n)

	if err := n.SetAlive(make([]bool, 48)); err == nil {
		t.Error("SetAlive with zero mounted nodes should fail")
	}
	if err := n.SetAlive(make([]bool, 3)); err == nil {
		t.Error("SetAlive with wrong mask length should fail")
	}
}

// TestTablesMatchAdjacencyAfterReconfig: after every step of a gate-off,
// gate-on and mount sequence, every alive router's table holds exactly the
// entries a fresh BuildTable over the active adjacency holds, and its
// one-hop entries are exactly the router's active links to alive nodes.
// Every step counts the links only in the old adjacency as disabled and
// those only in the new one as enabled, and a gate step returns the
// enabled ones.
func TestTablesMatchAdjacencyAfterReconfig(t *testing.T) {
	const N = 36
	n := deploy(t, topology.Config{N: N, Ports: 4, Seed: 13, Shortcuts: true})
	mounted := make([]bool, N)
	for i := range mounted {
		mounted[i] = i%5 != 0
	}
	steps := []struct {
		name string
		node int // the node a gate step powers on or off; -1 mounts the subset
		on   bool
	}{
		{"gate off 1", 1, false},
		{"gate off 2", 2, false},
		{"gate off 3", 3, false},
		{"gate off 30", 30, false},
		{"gate on 2", 2, true},
		{"gate on 30", 30, true},
		{"mount subset", -1, false},
		{"gate on 10", 10, true},
		{"gate off 7", 7, false},
	}
	for _, st := range steps {
		old, before := n.OutNeighbors(), n.Stats
		var woken []topology.Link
		var err error
		if st.node < 0 {
			err = n.SetAlive(mounted)
		} else {
			woken, err = n.Gate(st.node, st.on)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		out := n.OutNeighbors()
		disabled, enabled := 0, []topology.Link(nil)
		for u := range out {
			for _, w := range old[u] {
				if !slices.Contains(out[u], w) {
					disabled++
				}
			}
			for _, w := range out[u] {
				if !slices.Contains(old[u], w) {
					enabled = append(enabled, topology.Link{From: u, To: w})
				}
			}
		}
		d, e := n.Stats.LinksDisabled-before.LinksDisabled, n.Stats.LinksEnabled-before.LinksEnabled
		if d != disabled || e != len(enabled) || st.node >= 0 && !slices.Equal(woken, enabled) {
			t.Errorf("%s: counted %d links disabled and %d enabled, returned %v; %d are only in the old adjacency, %v only in the new",
				st.name, d, e, woken, disabled, enabled)
		}
		for u := 0; u < N; u++ {
			if !n.Alive(u) {
				continue
			}
			got := n.Router.Tables[u].Entries()
			if want := routing.BuildTable(u, out).Entries(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: node %d table\ngot  %v\nwant %v", st.name, u, got, want)
			}
			var oneHop []int
			for _, e := range got {
				if e.TwoHop {
					continue
				}
				if !n.Alive(e.Node) {
					t.Errorf("%s: node %d: one-hop entry for dead node %d", st.name, u, e.Node)
				}
				oneHop = append(oneHop, e.Node)
			}
			if !reflect.DeepEqual(oneHop, out[u]) {
				t.Errorf("%s: node %d: one-hop entries %v, active links %v", st.name, u, oneHop, out[u])
			}
		}
	}
}

func TestReconfigLatencyModel(t *testing.T) {
	tm := DefaultTiming()
	got := tm.TransitionNs(2, 3)
	want := 2*680.0 + 3*5000.0
	if got != want {
		t.Errorf("TransitionNs = %v, want %v", got, want)
	}
	if tm.MinIntervalNs != 100_000 {
		t.Errorf("MinIntervalNs = %v, want 100us", tm.MinIntervalNs)
	}
}

// TestElasticDeliveryProperty gates random subsets off and on and checks
// delivery among alive nodes after every step — the paper's central elastic
// scale claim as a property test.
func TestElasticDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(40)
		ports := []int{4, 8}[rng.Intn(2)]
		sf, err := topology.NewStringFigure(topology.Config{
			N: n, Ports: ports, Seed: seed, Shortcuts: true,
		})
		if err != nil {
			return false
		}
		net := New(sf)
		for step := 0; step < 12; step++ {
			v := rng.Intn(n)
			if net.Alive(v) {
				if net.AliveCount() > n/2 {
					if _, err := net.Gate(v, false); err != nil {
						return false
					}
				}
			} else {
				if _, err := net.Gate(v, true); err != nil {
					return false
				}
			}
			// Spot-check delivery among a random alive sample.
			var alive []int
			for u := 0; u < n; u++ {
				if net.Alive(u) {
					alive = append(alive, u)
				}
			}
			for trial := 0; trial < 10; trial++ {
				src := alive[rng.Intn(len(alive))]
				dst := alive[rng.Intn(len(alive))]
				if src == dst {
					continue
				}
				if _, err := net.Router.Route(src, dst); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestMergeSortedMatchesSets checks the one-pass merge behind
// reconfiguration's link diff and the gate rig against set membership: on random
// ascending lists, every value of either list is visited once, in
// ascending order, with the right membership flags.
func TestMergeSortedMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	list := func() ([]int, map[int]bool) {
		var l []int
		set := map[int]bool{}
		for v := 0; v < 40; v++ {
			if rng.Intn(3) == 0 {
				l = append(l, v)
				set[v] = true
			}
		}
		return l, set
	}
	for trial := 0; trial < 200; trial++ {
		a, inA := list()
		b, inB := list()
		last, seen := -1, 0
		MergeSorted(a, b, func(v int, ia, ib bool) {
			if v <= last {
				t.Fatalf("%v + %v: visited %d after %d", a, b, v, last)
			}
			if ia != inA[v] || ib != inB[v] || !(ia || ib) {
				t.Fatalf("%v + %v: %d flagged (%v, %v)", a, b, v, ia, ib)
			}
			last = v
			seen++
		})
		union := map[int]bool{}
		for _, v := range append(append([]int(nil), a...), b...) {
			union[v] = true
		}
		if seen != len(union) {
			t.Fatalf("%v + %v: visited %d values, the union has %d", a, b, seen, len(union))
		}
	}
}
