package reconfig

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// wireVariants are the sf builds a design can adopt: the paper's
// bidirectional network with shortcuts, the strict uni-directional variant
// and the shortcut-free one.
var wireVariants = []struct {
	name                     string
	bidirectional, shortcuts bool
}{
	{"bidi", true, true},
	{"uni", false, true},
	{"no-shortcuts", true, false},
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

// gateStep is a sequence step that gates node v on or off.
func gateStep(v int, on bool) func(*Network) error {
	return func(n *Network) error {
		_, err := n.Gate(v, on)
		return err
	}
}

// TestFullScaleAdjacencyIsOutNeighbors is what makes adoption safe: the
// adjacency the engine derives for an all-alive mask, which every later
// reconfiguration diffs against, is exactly the full-scale adjacency a
// design builds its router over.
func TestFullScaleAdjacencyIsOutNeighbors(t *testing.T) {
	for _, v := range wireVariants {
		for _, n := range []int{16, 17, 32, 61, 64, 113, 128, 256, 512, 1024, 1296} {
			for _, seed := range []int64{1, 2, 7} {
				sf, err := topology.NewStringFigure(topology.Config{
					N: n, Ports: topology.PortsForN(n), Seed: seed,
					Bidirectional: v.bidirectional, Shortcuts: v.shortcuts,
				})
				if err != nil {
					t.Fatal(err)
				}
				net := New(sf)
				if got, want := net.AdjacencyFor(allAlive(n)), sf.OutNeighbors(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s N=%d seed %d: AdjacencyFor(all alive) differs from OutNeighbors", v.name, n, seed)
				}
			}
		}
	}
}

// TestAdoptedRouterTracksReconfiguration drives a network that adopted a
// router built over sf.OutNeighbors() (what a design hands over) and one
// whose router was built over the engine's own derived adjacency through
// the same gate and mount sequence: after every step both must expose the
// same adjacency and the same candidates for every pair.
func TestAdoptedRouterTracksReconfiguration(t *testing.T) {
	for _, v := range wireVariants {
		const n = 48
		sf, err := topology.NewStringFigure(topology.Config{
			N: n, Ports: 4, Seed: 5, Bidirectional: v.bidirectional, Shortcuts: v.shortcuts,
		})
		if err != nil {
			t.Fatal(err)
		}
		adopted := New(sf)
		derived := New(sf).AdjacencyFor(allAlive(n))
		ref := Adopt(sf, derived, routing.NewGreediestOver(sf, 0, derived))

		mounted := allAlive(n)
		for i := 32; i < n; i++ {
			mounted[i] = false
		}
		steps := []struct {
			name string
			do   func(*Network) error
		}{
			{"full scale", func(*Network) error { return nil }},
			{"gate off 3", gateStep(3, false)},
			{"gate off 4", gateStep(4, false)},
			{"gate off 40", gateStep(40, false)},
			{"gate on 3", gateStep(3, true)},
			{"mount 32", func(w *Network) error { return w.SetAlive(mounted) }},
			{"gate on 45", gateStep(45, true)},
			{"gate off 0", gateStep(0, false)},
			{"mount all", func(w *Network) error { return w.SetAlive(allAlive(n)) }},
		}
		for _, st := range steps {
			for _, w := range []*Network{adopted, ref} {
				if err := st.do(w); err != nil {
					t.Fatalf("%s, %s: %v", v.name, st.name, err)
				}
			}
			if !reflect.DeepEqual(adopted.OutNeighbors(), ref.OutNeighbors()) {
				t.Fatalf("%s, %s: adjacency differs", v.name, st.name)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					a, b := adopted.Router.Candidates(src, dst), ref.Router.Candidates(src, dst)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s, %s: candidates %d -> %d: adopted %v, derived %v", v.name, st.name, src, dst, a, b)
					}
				}
			}
		}
	}
}

// TestAdoptKeepsTheRouter pins ownership: the engine edits the router it
// was handed, never a copy.
func TestAdoptKeepsTheRouter(t *testing.T) {
	sf, err := topology.NewPaperSF(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := sf.OutNeighbors()
	g := routing.NewGreediestOver(sf, 0, out)
	net := Adopt(sf, out, g)
	if net.Router != g {
		t.Fatal("Adopt replaced the router it was handed")
	}
	before := g.Tables[sf.Order[0][1]]
	if _, err := net.Gate(sf.Order[0][2], false); err != nil {
		t.Fatal(err)
	}
	if g.Tables[sf.Order[0][1]] == before {
		t.Error("gating a ring neighbor left the adopted router's table untouched")
	}
}

// TestCopyIsolatesReconfiguration pins the ownership a gated session
// relies on: gating a copy leaves the original's alive mask, adjacency and
// every table pointer as they were, the reverse holds too, and a copy
// reconfigures exactly as a network of its own would.
func TestCopyIsolatesReconfiguration(t *testing.T) {
	type state struct {
		alive  []bool
		out    [][]int
		tables []*routing.Table
	}
	stateOf := func(n *Network) state {
		return state{n.AliveSlice(), n.OutNeighbors(), slices.Clone(n.Router.Tables)}
	}
	same := func(a, b state) bool {
		return reflect.DeepEqual(a.alive, b.alive) && reflect.DeepEqual(a.out, b.out) && slices.Equal(a.tables, b.tables)
	}
	for _, v := range wireVariants {
		sf, err := topology.NewStringFigure(topology.Config{
			N: 64, Ports: topology.PortsForN(64), Seed: 3,
			Bidirectional: v.bidirectional, Shortcuts: v.shortcuts,
		})
		if err != nil {
			t.Fatal(err)
		}
		// twin replays the original's history, then the copy's steps.
		orig, twin := New(sf), New(sf)
		if err := errors.Join(gateStep(40, false)(orig), gateStep(40, false)(twin)); err != nil {
			t.Fatal(err)
		}
		steps := []func(*Network) error{
			gateStep(sf.Order[0][2], false),
			gateStep(9, false),
			gateStep(sf.Order[0][2], true),
			gateStep(40, true),
		}
		before, cp := stateOf(orig), orig.Copy()
		for i, step := range steps {
			if err := errors.Join(step(cp), step(twin)); err != nil {
				t.Fatalf("%s step %d: %v", v.name, i, err)
			}
			if !same(stateOf(orig), before) {
				t.Fatalf("%s step %d: gating the copy changed the original", v.name, i)
			}
			c, w := stateOf(cp), stateOf(twin)
			if !reflect.DeepEqual(c.alive, w.alive) || !reflect.DeepEqual(c.out, w.out) || !reflect.DeepEqual(c.tables, w.tables) {
				t.Fatalf("%s step %d: the copy differs from a network of its own after the same steps", v.name, i)
			}
		}
		mid := stateOf(cp)
		for i, step := range steps {
			if err := step(orig); err != nil {
				t.Fatalf("%s original step %d: %v", v.name, i, err)
			}
			if !same(stateOf(cp), mid) {
				t.Fatalf("%s original step %d: gating the original changed the copy", v.name, i)
			}
		}
	}
}
