package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshDimensions(t *testing.T) {
	for _, c := range []struct{ n, rows, cols int }{
		{16, 4, 4}, {17, 4, 5}, {61, 8, 8}, {64, 8, 8}, {113, 11, 11}, {1296, 36, 36},
	} {
		m, err := NewMesh(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows != c.rows || m.Cols != c.cols {
			t.Errorf("NewMesh(%d) = %dx%d, want %dx%d", c.n, m.Rows, m.Cols, c.rows, c.cols)
		}
		if m.Rows*m.Cols < c.n {
			t.Errorf("NewMesh(%d): grid too small", c.n)
		}
	}
	if _, err := NewMesh(1); err == nil {
		t.Error("NewMesh(1) should fail")
	}
}

func TestMeshGraphConnected(t *testing.T) {
	for _, n := range []int{16, 17, 61, 113, 128} {
		m, err := NewMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		if !g.StronglyConnected() {
			t.Errorf("mesh(%d) not strongly connected", n)
		}
		// Interior node degree 4, corners 2.
		if g.MaxOutDegree() > 4 {
			t.Errorf("mesh(%d) max degree %d > 4", n, g.MaxOutDegree())
		}
	}
}

func TestODMWidth(t *testing.T) {
	m, err := NewODM(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	// Every physical link is one edge per direction of capacity 3: an
	// interior node of a 4x4 has 4 out-edges and out-capacity 4*3.
	edges := g.Neighbors(5)
	outCap := 0.0
	for _, e := range edges {
		if e.Cap != 3 {
			t.Errorf("ODM edge 5->%d capacity = %v, want 3", e.To, e.Cap)
		}
		outCap += e.Cap
	}
	if len(edges) != 4 || outCap != 12 {
		t.Errorf("ODM interior node: %d out-edges of out-capacity %v, want 4 and 12", len(edges), outCap)
	}
	if m.Ports() != 12 {
		t.Errorf("ODM Ports = %d, want 12", m.Ports())
	}
	if _, err := NewODM(16, 0); err == nil {
		t.Error("NewODM width 0 should fail")
	}
}

func TestMeshXYRouting(t *testing.T) {
	m, err := NewMesh(16) // 4x4
	if err != nil {
		t.Fatal(err)
	}
	// From 0 (0,0) to 15 (3,3): XY first corrects the column.
	hops := m.XYNextHops(0, 15)
	if len(hops) != 2 {
		t.Fatalf("XYNextHops(0,15) = %v, want 2 adaptive candidates", hops)
	}
	if hops[0] != 1 || hops[1] != 4 {
		t.Errorf("XYNextHops(0,15) = %v, want [1 4]", hops)
	}
	// Same row: single candidate.
	if hops := m.XYNextHops(0, 3); len(hops) != 1 || hops[0] != 1 {
		t.Errorf("XYNextHops(0,3) = %v, want [1]", hops)
	}
	// At destination: nil.
	if hops := m.XYNextHops(7, 7); hops != nil {
		t.Errorf("XYNextHops(7,7) = %v, want nil", hops)
	}
}

func TestMeshXYDeliversEverywhere(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 4 + int(nRaw)%100
		m, err := NewMesh(n)
		if err != nil {
			return false
		}
		for src := 0; src < n; src += 7 {
			for dst := 0; dst < n; dst += 5 {
				cur := src
				for steps := 0; cur != dst; steps++ {
					if steps > 4*(m.Rows+m.Cols) {
						return false // not converging
					}
					hops := m.XYNextHops(cur, dst)
					if len(hops) == 0 {
						return false
					}
					cur = hops[0]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFBParams(t *testing.T) {
	for _, c := range []struct{ n, side, conc int }{
		{128, 11, 2}, {256, 13, 2}, {512, 16, 2}, {1024, 17, 4}, {1296, 17, 5},
	} {
		side, conc := FBParams(c.n)
		if side != c.side || conc != c.conc {
			t.Errorf("FBParams(%d) = (%d,%d), want (%d,%d)", c.n, side, conc, c.side, c.conc)
		}
		if side*side*conc < c.n {
			t.Errorf("FBParams(%d): capacity %d too small", c.n, side*side*conc)
		}
	}
}

func TestFlattenedButterflyStructure(t *testing.T) {
	fb, err := NewFlattenedButterfly(256)
	if err != nil {
		t.Fatal(err)
	}
	g := fb.Graph()
	if !g.StronglyConnected() {
		t.Error("FB not strongly connected")
	}
	// Full row+column connectivity: diameter 2 at router level.
	st := g.AllPairsPathLengths()
	if st.Diameter > 2 {
		t.Errorf("FB diameter = %d, want <= 2", st.Diameter)
	}
	wantPorts := 2 * (fb.Side - 1)
	if p := fb.Ports(); p != wantPorts {
		t.Errorf("FB ports = %d, want %d", p, wantPorts)
	}
}

func TestAFBStructure(t *testing.T) {
	afb, err := NewAdaptedFlattenedButterfly(256)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := NewFlattenedButterfly(256)
	g := afb.Graph()
	if !g.StronglyConnected() {
		t.Error("AFB not strongly connected")
	}
	if afb.Ports() >= fb.Ports() {
		t.Errorf("AFB ports (%d) should be fewer than FB ports (%d)", afb.Ports(), fb.Ports())
	}
	st := g.AllPairsPathLengths()
	if st.Diameter > 4 {
		t.Errorf("AFB diameter = %d, want <= 4", st.Diameter)
	}
}

func TestButterflyMinimalRouting(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		b, err := newButterfly(256, 13, 2, partitioned)
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graph()
		// Minimal routing must converge for every router pair, and each
		// hop must traverse a real link.
		for src := 0; src < b.Routers(); src += 11 {
			for dst := 0; dst < b.Routers(); dst += 7 {
				cur := src
				for steps := 0; cur != dst; steps++ {
					if steps > 8 {
						t.Fatalf("partitioned=%v: route %d->%d did not converge", partitioned, src, dst)
					}
					hops := b.MinimalNextHops(cur, dst)
					if len(hops) == 0 {
						t.Fatalf("partitioned=%v: no next hop at %d toward %d", partitioned, cur, dst)
					}
					if !g.HasEdge(cur, hops[0]) {
						t.Fatalf("partitioned=%v: next hop %d->%d is not a link", partitioned, cur, hops[0])
					}
					cur = hops[0]
				}
			}
		}
	}
}

func TestButterflyNodeRouterMapping(t *testing.T) {
	fb, err := NewFlattenedButterfly(1024)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for v := 0; v < fb.N; v++ {
		r := fb.NodeRouter(v)
		if r < 0 || r >= fb.Routers() {
			t.Fatalf("node %d mapped to invalid router %d", v, r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c > fb.Conc {
			t.Errorf("router %d hosts %d nodes, conc %d", r, c, fb.Conc)
		}
	}
}

func TestJellyfishRegularity(t *testing.T) {
	j, err := NewJellyfish(100, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 100; v++ {
		if len(j.Neighbors(v)) != 6 {
			t.Errorf("node %d degree %d, want 6", v, len(j.Neighbors(v)))
		}
		seen := map[int]bool{}
		for _, w := range j.Neighbors(v) {
			if w == v {
				t.Errorf("self loop at %d", v)
			}
			if seen[w] {
				t.Errorf("duplicate edge %d-%d", v, w)
			}
			seen[w] = true
		}
	}
	if !j.Graph().StronglyConnected() {
		t.Error("jellyfish not connected")
	}
}

func TestJellyfishSymmetry(t *testing.T) {
	j, err := NewJellyfish(60, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph()
	for v := 0; v < 60; v++ {
		for _, e := range g.Neighbors(v) {
			if !g.HasEdge(e.To, v) {
				t.Errorf("edge %d->%d missing reverse", v, e.To)
			}
		}
	}
}

func TestJellyfishValidation(t *testing.T) {
	if _, err := NewJellyfish(10, 3, 1); err != nil {
		t.Errorf("n*degree=30 even... wait 10*3=30 is even; unexpected error %v", err)
	}
	if _, err := NewJellyfish(9, 3, 1); err == nil {
		t.Error("odd n*degree should fail")
	}
	if _, err := NewJellyfish(4, 5, 1); err == nil {
		t.Error("degree >= n should fail")
	}
	if _, err := NewJellyfish(1, 2, 1); err == nil {
		t.Error("n < 2 should fail")
	}
}

func TestJellyfishProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 10 + int(nRaw)%90
		d := 3 + int(dRaw)%4
		if n*d%2 != 0 {
			n++
		}
		j, err := NewJellyfish(n, d, seed)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if len(j.Neighbors(v)) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
