package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func mustSF(t *testing.T, cfg Config) *StringFigure {
	t.Helper()
	sf, err := NewStringFigure(cfg)
	if err != nil {
		t.Fatalf("NewStringFigure(%+v): %v", cfg, err)
	}
	return sf
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 9, Ports: 4}, true},
		{Config{N: 2, Ports: 2}, true},
		{Config{N: 1, Ports: 4}, false},
		{Config{N: 9, Ports: 1}, false},
		{Config{N: 0, Ports: 0}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestSpacesCount(t *testing.T) {
	for _, c := range []struct{ ports, spaces int }{{4, 2}, {8, 4}, {5, 2}, {2, 1}} {
		sf := mustSF(t, Config{N: 16, Ports: c.ports, Seed: 1})
		if sf.Spaces != c.spaces {
			t.Errorf("Ports=%d: Spaces=%d, want %d", c.ports, sf.Spaces, c.spaces)
		}
	}
}

func TestBalancedCoordinates(t *testing.T) {
	sf := mustSF(t, Config{N: 64, Ports: 8, Seed: 3})
	for s := 0; s < sf.Spaces; s++ {
		// Every coordinate in [0,1), ranks consistent with sorted order.
		for v := 0; v < 64; v++ {
			c := sf.Coord[s][v]
			if c < 0 || c >= 1 {
				t.Fatalf("space %d node %d coordinate %v out of range", s, v, c)
			}
			if sf.Order[s][sf.Rank[s][v]] != v {
				t.Fatalf("space %d rank/order inconsistent for node %d", s, v)
			}
		}
		// Balance: consecutive arcs within [0.5/N, 1.5/N].
		n := float64(64)
		for k := 0; k < 64; k++ {
			u := sf.Order[s][k]
			v := sf.Order[s][(k+1)%64]
			arc := ClockwiseDistance(sf.Coord[s][u], sf.Coord[s][v])
			if arc < 0.5/n-1e-12 || arc > 1.5/n+1e-12 {
				t.Errorf("space %d arc %d->%d = %v outside balanced bounds", s, u, v, arc)
			}
		}
	}
}

func TestCoordinatesDifferAcrossSpaces(t *testing.T) {
	sf := mustSF(t, Config{N: 128, Ports: 8, Seed: 9})
	same := 0
	for v := 0; v < 128; v++ {
		if sf.Rank[0][v] == sf.Rank[1][v] {
			same++
		}
	}
	if same > 16 { // random permutations agree on ~1 position on average
		t.Errorf("spaces 0 and 1 share %d ranks; orders not independent", same)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := mustSF(t, Config{N: 50, Ports: 8, Seed: 77, Shortcuts: true})
	b := mustSF(t, Config{N: 50, Ports: 8, Seed: 77, Shortcuts: true})
	if len(a.Rings) != len(b.Rings) || len(a.Extras) != len(b.Extras) || len(a.Shortcuts) != len(b.Shortcuts) {
		t.Fatal("same seed produced different link counts")
	}
	for i := range a.Rings {
		if a.Rings[i] != b.Rings[i] {
			t.Fatalf("ring %d differs: %+v vs %+v", i, a.Rings[i], b.Rings[i])
		}
	}
	c := mustSF(t, Config{N: 50, Ports: 8, Seed: 78, Shortcuts: true})
	diff := false
	for i := range a.Rings {
		if a.Rings[i] != c.Rings[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical topologies")
	}
}

func TestRingLinksFormCyclePerSpace(t *testing.T) {
	sf := mustSF(t, Config{N: 30, Ports: 4, Seed: 5})
	// Following Successor in each space must visit all nodes exactly once.
	for s := 0; s < sf.Spaces; s++ {
		seen := make(map[int]bool)
		v := 0
		for i := 0; i < 30; i++ {
			if seen[v] {
				t.Fatalf("space %d: revisited node %d after %d steps", s, v, i)
			}
			seen[v] = true
			v = sf.Successor(s, v, nil)
		}
		if v != 0 {
			t.Fatalf("space %d: ring did not close (ended at %d)", s, v)
		}
	}
}

func TestSuccessorSkipsDeadNodes(t *testing.T) {
	sf := mustSF(t, Config{N: 10, Ports: 4, Seed: 2})
	alive := make([]bool, 10)
	for i := range alive {
		alive[i] = true
	}
	v := 3
	succ := sf.Successor(0, v, alive)
	alive[succ] = false
	succ2 := sf.Successor(0, v, alive)
	if succ2 == succ {
		t.Error("Successor returned a dead node")
	}
	if succ2 != sf.Successor(0, succ, nil) {
		t.Errorf("Successor should skip to the next ring node, got %d", succ2)
	}
	// All nodes dead except v: no successor.
	for i := range alive {
		alive[i] = i == v
	}
	if got := sf.Successor(0, v, alive); got != -1 {
		t.Errorf("Successor with all peers dead = %d, want -1", got)
	}
}

func TestPortBudgetRespected(t *testing.T) {
	// Out-degree (distinct wires out of a node) must not exceed the
	// uni-directional port budget: spaces + extras <= p/2 + shortcut slots.
	for _, cfg := range []Config{
		{N: 9, Ports: 4, Seed: 1, Shortcuts: true},
		{N: 64, Ports: 4, Seed: 2, Shortcuts: true},
		{N: 128, Ports: 8, Seed: 3, Shortcuts: true},
		{N: 257, Ports: 8, Seed: 4, Shortcuts: true},
	} {
		sf := mustSF(t, cfg)
		limit := cfg.Ports/2 + 2 // Section IV: Cnode <= p/2 + 2
		if got := sf.MaxConnectionsPerNode(); got > limit {
			t.Errorf("cfg %+v: MaxConnectionsPerNode = %d, want <= %d", cfg, got, limit)
		}
		// Ring out-links alone must not exceed p/2 per node.
		outRing := make([]int, cfg.N)
		for _, l := range sf.Rings {
			outRing[l.From]++
		}
		for v, c := range outRing {
			if c > cfg.Ports/2 {
				t.Errorf("cfg %+v: node %d has %d ring out-links, budget %d", cfg, v, c, cfg.Ports/2)
			}
		}
	}
}

func TestExtrasOnlyUseFreePorts(t *testing.T) {
	sf := mustSF(t, Config{N: 40, Ports: 8, Seed: 6})
	outUsed := make([]int, 40)
	inUsed := make([]int, 40)
	for _, l := range sf.Rings {
		outUsed[l.From]++
		inUsed[l.To]++
	}
	for _, l := range sf.Extras {
		outUsed[l.From]++
		inUsed[l.To]++
	}
	for v := 0; v < 40; v++ {
		if outUsed[v] > sf.Spaces {
			t.Errorf("node %d uses %d out-ports, budget %d", v, outUsed[v], sf.Spaces)
		}
		if inUsed[v] > sf.Spaces {
			t.Errorf("node %d uses %d in-ports, budget %d", v, inUsed[v], sf.Spaces)
		}
	}
}

func TestNoDuplicateActiveLinks(t *testing.T) {
	sf := mustSF(t, Config{N: 100, Ports: 8, Seed: 13, Shortcuts: true})
	seen := make(map[[2]int]bool)
	for _, l := range sf.AllLinks() {
		k := [2]int{l.From, l.To}
		if seen[k] {
			t.Errorf("duplicate wire %d->%d (%v)", l.From, l.To, l.Type)
		}
		seen[k] = true
		if l.From == l.To {
			t.Errorf("self wire at node %d", l.From)
		}
	}
}

func TestShortcutRules(t *testing.T) {
	sf := mustSF(t, Config{N: 60, Ports: 4, Seed: 21, Shortcuts: true})
	perNode := make(map[int]int)
	for _, l := range sf.Shortcuts {
		if l.To <= l.From {
			t.Errorf("shortcut %d->%d targets a smaller node number", l.From, l.To)
		}
		if l.Hops != 2 && l.Hops != 4 {
			t.Errorf("shortcut %d->%d has hop count %d, want 2 or 4", l.From, l.To, l.Hops)
		}
		// Verify the target really is the 2- or 4-hop Space-0 clockwise neighbor.
		r := sf.Rank[0][l.From]
		want := sf.Order[0][(r+l.Hops)%60]
		if l.To != want {
			t.Errorf("shortcut %d->%d (hops=%d): expected target %d", l.From, l.To, l.Hops, want)
		}
		perNode[l.From]++
	}
	for v, c := range perNode {
		if c > 2 {
			t.Errorf("node %d has %d shortcuts, max 2", v, c)
		}
	}
}

func TestS2HasNoShortcuts(t *testing.T) {
	s2, err := NewS2(64, 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Shortcuts) != 0 {
		t.Errorf("S2 has %d shortcuts, want 0", len(s2.Shortcuts))
	}
}

func TestGraphStronglyConnected(t *testing.T) {
	for _, cfg := range []Config{
		{N: 9, Ports: 4, Seed: 1},
		{N: 17, Ports: 4, Seed: 2},
		{N: 61, Ports: 4, Seed: 3},
		{N: 113, Ports: 4, Seed: 4},
		{N: 256, Ports: 8, Seed: 5},
		{N: 9, Ports: 4, Seed: 1, Bidirectional: true},
		{N: 61, Ports: 4, Seed: 3, Bidirectional: true},
	} {
		sf := mustSF(t, cfg)
		if !sf.Graph().StronglyConnected() {
			t.Errorf("cfg %+v: graph not strongly connected", cfg)
		}
	}
}

func TestGraphStronglyConnectedProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := 5 + int(nRaw)%120
		ports := []int{4, 6, 8}[int(pRaw)%3]
		sf, err := NewStringFigure(Config{N: n, Ports: ports, Seed: seed})
		if err != nil {
			return false
		}
		return sf.Graph().StronglyConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCircularDistance(t *testing.T) {
	cases := []struct{ u, v, want float64 }{
		{0.1, 0.2, 0.1},
		{0.9, 0.1, 0.2},
		{0.0, 0.5, 0.5},
		{0.25, 0.25, 0},
		{0.8, 0.1, 0.3},
	}
	for _, c := range cases {
		if got := CircularDistance(c.u, c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CircularDistance(%v,%v) = %v, want %v", c.u, c.v, got, c.want)
		}
		if got := CircularDistance(c.v, c.u); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CircularDistance not symmetric at (%v,%v)", c.u, c.v)
		}
	}
}

func TestClockwiseDistance(t *testing.T) {
	cases := []struct{ u, v, want float64 }{
		{0.1, 0.2, 0.1},
		{0.2, 0.1, 0.9},
		{0.9, 0.1, 0.2},
		{0.5, 0.5, 0},
	}
	for _, c := range cases {
		if got := ClockwiseDistance(c.u, c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ClockwiseDistance(%v,%v) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestCircularDistanceProperties(t *testing.T) {
	f := func(a, b float64) bool {
		u := a - math.Floor(a)
		v := b - math.Floor(b)
		d := CircularDistance(u, v)
		if d < 0 || d > 0.5+1e-12 {
			return false
		}
		cw, ccw := ClockwiseDistance(u, v), ClockwiseDistance(v, u)
		// The symmetric distance is the min of the two arcs, which sum to 1.
		if u != v && math.Abs(cw+ccw-1) > 1e-9 {
			return false
		}
		return math.Abs(d-math.Min(cw, ccw)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinCircularDistanceUpperBoundsMD(t *testing.T) {
	sf := mustSF(t, Config{N: 33, Ports: 8, Seed: 8})
	for u := 0; u < 33; u++ {
		for v := 0; v < 33; v++ {
			md := sf.MinCircularDistance(u, v)
			for s := 0; s < sf.Spaces; s++ {
				d := CircularDistance(sf.Coord[s][u], sf.Coord[s][v])
				if md > d+1e-12 {
					t.Fatalf("MD(%d,%d)=%v exceeds space-%d distance %v", u, v, md, s, d)
				}
			}
			if u == v && md > 1e-12 {
				t.Fatalf("MD(%d,%d) = %v, want 0", u, v, md)
			}
		}
	}
}

func TestPortsForN(t *testing.T) {
	for _, c := range []struct{ n, want int }{{16, 4}, {128, 4}, {129, 8}, {256, 8}, {1296, 8}} {
		if got := PortsForN(c.n); got != c.want {
			t.Errorf("PortsForN(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNewPaperSF(t *testing.T) {
	sf, err := NewPaperSF(1296, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Cfg.Ports != 8 || sf.Spaces != 4 {
		t.Errorf("paper SF at 1296: ports=%d spaces=%d, want 8/4", sf.Cfg.Ports, sf.Spaces)
	}
	if len(sf.Shortcuts) == 0 {
		t.Error("paper SF should have shortcuts")
	}
	if !sf.Cfg.Bidirectional {
		t.Error("paper SF should use the bidirectional S2-style construction")
	}
	// Degree p: every node has close to Ports distinct neighbors.
	g := sf.Graph()
	if g.MaxOutDegree() > sf.Cfg.Ports+2 {
		t.Errorf("max out-degree %d exceeds ports+2", g.MaxOutDegree())
	}
}

func TestBidirectionalPortBudget(t *testing.T) {
	for _, cfg := range []Config{
		{N: 40, Ports: 4, Seed: 1, Bidirectional: true, Shortcuts: true},
		{N: 200, Ports: 8, Seed: 2, Bidirectional: true, Shortcuts: true},
	} {
		sf := mustSF(t, cfg)
		// Each node's duplex wires (rings + extras) fit in p ports; at most
		// two extra shortcut wires ride the topology switch.
		wires := make([]int, cfg.N)
		for _, l := range sf.Rings {
			wires[l.From]++
			wires[l.To]++
		}
		for _, l := range sf.Extras {
			wires[l.From]++
			wires[l.To]++
		}
		for v, w := range wires {
			if w > cfg.Ports {
				t.Errorf("cfg %+v: node %d has %d duplex wires, budget %d", cfg, v, w, cfg.Ports)
			}
		}
	}
}
