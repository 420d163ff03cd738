package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddBiEdge(i, (i+1)%n)
	}
	return g
}

func TestBFSOnRing(t *testing.T) {
	g := ring(8)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Errorf("dist[2] = %d, want -1", dist[2])
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestStronglyConnected(t *testing.T) {
	// A directed cycle is strongly connected...
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	if !g.StronglyConnected() {
		t.Error("directed cycle should be strongly connected")
	}
	// ...a directed path is not.
	p := New(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	p.AddEdge(2, 1)
	p.AddEdge(1, 0) // now strongly connected again
	if !p.StronglyConnected() {
		t.Error("bidirectional path should be strongly connected")
	}
	p2 := New(3)
	p2.AddEdge(0, 1)
	p2.AddEdge(1, 2)
	p2.AddEdge(2, 0)
	p2.AddEdge(0, 2) // extra edge, still fine
	if !p2.StronglyConnected() {
		t.Error("cycle with chord should be strongly connected")
	}
	p3 := New(2)
	p3.AddEdge(0, 1)
	if p3.StronglyConnected() {
		t.Error("one-way pair should not be strongly connected")
	}
}

func TestAllPairsPathLengthsRing(t *testing.T) {
	g := ring(6)
	st := g.AllPairsPathLengths()
	// Ring of 6: distances from any node are 1,2,3,2,1 -> mean 9/5.
	if math.Abs(st.Mean-9.0/5.0) > 1e-9 {
		t.Errorf("Mean = %v, want 1.8", st.Mean)
	}
	if st.Diameter != 3 {
		t.Errorf("Diameter = %d, want 3", st.Diameter)
	}
	if st.Pairs != 30 {
		t.Errorf("Pairs = %d, want 30", st.Pairs)
	}
}

func TestSampledPathLengthsSubset(t *testing.T) {
	g := ring(32)
	st := g.SampledPathLengths(8, rand.New(rand.NewSource(7)))
	if st.Pairs != 8*31 {
		t.Errorf("Pairs = %d, want %d", st.Pairs, 8*31)
	}
	full := g.AllPairsPathLengths()
	if math.Abs(st.Mean-full.Mean) > 1e-9 {
		// On a vertex-transitive ring every source sees the same distribution.
		t.Errorf("sampled mean %v != full mean %v", st.Mean, full.Mean)
	}
}

func TestHasEdgeAndDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel edge
	g.AddEdge(0, 2)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if g.OutDegree(0) != 3 {
		t.Errorf("OutDegree = %d, want 3 (parallel edges count)", g.OutDegree(0))
	}
	u := g.UniqueOutNeighbors(0)
	if len(u) != 2 || u[0] != 1 || u[1] != 2 {
		t.Errorf("UniqueOutNeighbors = %v, want [1 2]", u)
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
	if g.MaxOutDegree() != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", g.MaxOutDegree())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, c := range []struct{ u, v int }{{0, 0}, {-1, 1}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", c.u, c.v)
				}
			}()
			g.AddEdge(c.u, c.v)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	g := ring(4)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("Clone shares adjacency storage with original")
	}
	if c.EdgeCount() != g.EdgeCount()+1 {
		t.Error("Clone lost edges")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := ring(6)
	alive := []bool{true, true, true, true, false, true}
	sub := g.InducedSubgraph(alive)
	if sub.OutDegree(4) != 0 {
		t.Error("dead node has edges in subgraph")
	}
	if sub.HasEdge(3, 4) || sub.HasEdge(5, 4) {
		t.Error("edges to dead node survive")
	}
	if !sub.HasEdge(0, 1) {
		t.Error("edge between alive nodes lost")
	}
}

func TestMaxFlowSimple(t *testing.T) {
	// Classic diamond: 0->1->3, 0->2->3 each cap 1, plus a cross edge.
	g := New(4)
	g.AddEdgeCap(0, 1, 1)
	g.AddEdgeCap(0, 2, 1)
	g.AddEdgeCap(1, 3, 1)
	g.AddEdgeCap(2, 3, 1)
	g.AddEdgeCap(1, 2, 1)
	if got := g.MaxFlow(0, 3); math.Abs(got-2) > 1e-9 {
		t.Errorf("MaxFlow = %v, want 2", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Path with a narrow middle edge.
	g := New(3)
	g.AddEdgeCap(0, 1, 5)
	g.AddEdgeCap(1, 2, 2)
	if got := g.MaxFlow(0, 2); math.Abs(got-2) > 1e-9 {
		t.Errorf("MaxFlow = %v, want 2", got)
	}
}

func TestMaxFlowParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdgeCap(0, 1, 1)
	g.AddEdgeCap(0, 1, 1.5)
	if got := g.MaxFlow(0, 1); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("MaxFlow = %v, want 2.5", got)
	}
}

func TestPartitionFlowRing(t *testing.T) {
	// Bidirectional ring of 8 with unit caps: any contiguous bisection is cut
	// by exactly 2 edges in each direction => flow 2 from left to right.
	g := ring(8)
	flow := g.PartitionFlow([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	if math.Abs(flow-2) > 1e-9 {
		t.Errorf("PartitionFlow = %v, want 2", flow)
	}
}

func TestBisectionBandwidthRing(t *testing.T) {
	g := ring(16)
	bw := g.BisectionBandwidth(25, rand.New(rand.NewSource(42)))
	// Any balanced cut of a ring crosses at least 2 edges per direction.
	if bw < 2-1e-9 {
		t.Errorf("BisectionBandwidth = %v, want >= 2", bw)
	}
	// And random cuts cannot exceed the total edge count.
	if bw > float64(g.EdgeCount()) {
		t.Errorf("BisectionBandwidth = %v exceeds edge count", bw)
	}
}

func TestMaxFlowMatchesMinCutProperty(t *testing.T) {
	// Property: on random DAG-ish graphs, maxflow(s,t) <= min(outcap(s), incap(t)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					g.AddEdgeCap(u, v, float64(1+rng.Intn(4)))
				}
			}
		}
		s, t := 0, n-1
		var outCap, inCap float64
		for _, e := range g.Neighbors(s) {
			outCap += e.Cap
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(u) {
				if e.To == t {
					inCap += e.Cap
				}
			}
		}
		flow := g.MaxFlow(s, t)
		lim := outCap
		if inCap < lim {
			lim = inCap
		}
		return flow <= lim+1e-9 && flow >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxFlowSymmetricOnUndirected(t *testing.T) {
	// On graphs with symmetric edges, flow s->t equals flow t->s.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					c := float64(1 + rng.Intn(3))
					g.AddEdgeCap(u, v, c)
					g.AddEdgeCap(v, u, c)
				}
			}
		}
		a := g.MaxFlow(0, n-1)
		b := g.MaxFlow(n-1, 0)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInducedSubgraphStats(t *testing.T) {
	g := ring(8)
	alive := []bool{true, true, true, true, true, true, true, true}
	full := g.InducedSubgraphStats(alive, 0)
	ref := g.AllPairsPathLengths()
	if full.Mean != ref.Mean || full.Diameter != ref.Diameter {
		t.Errorf("all-alive stats %v != reference %v", full, ref)
	}
	// Kill node 4: distances measured on the full graph but only between
	// alive pairs.
	alive[4] = false
	st := g.InducedSubgraphStats(alive, 0)
	if st.Pairs != 7*6 {
		t.Errorf("Pairs = %d, want 42", st.Pairs)
	}
	// Sampling caps sources.
	sampled := g.InducedSubgraphStats(alive, 3)
	if sampled.Pairs != 3*6 {
		t.Errorf("sampled Pairs = %d, want 18", sampled.Pairs)
	}
}
