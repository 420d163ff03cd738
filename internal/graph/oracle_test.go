package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refDinic is the append-grown Dinic network the package computed every
// flow with before its flows moved onto one reusable residual network
// (flowNet). It is kept here, and only here, as the oracle the flowNet
// kernel must equal.
type refDinic struct {
	adj   [][]refArc
	level []int
	iter  []int
}

type refArc struct {
	to  int
	cap float64
	rev int // index of the reverse arc in adj[to]
}

func newRefDinic(n int) *refDinic {
	return &refDinic{adj: make([][]refArc, n), level: make([]int, n), iter: make([]int, n)}
}

func (d *refDinic) addEdge(u, v int, cap float64) {
	d.adj[u] = append(d.adj[u], refArc{to: v, cap: cap, rev: len(d.adj[v])})
	d.adj[v] = append(d.adj[v], refArc{to: u, cap: 0, rev: len(d.adj[u]) - 1})
}

func (d *refDinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range d.adj[u] {
			if e.cap > 1e-12 && d.level[e.to] < 0 {
				d.level[e.to] = d.level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return d.level[t] >= 0
}

func (d *refDinic) dfs(u, t int, f float64) float64 {
	if u == t {
		return f
	}
	for ; d.iter[u] < len(d.adj[u]); d.iter[u]++ {
		e := &d.adj[u][d.iter[u]]
		if e.cap > 1e-12 && d.level[e.to] == d.level[u]+1 {
			if got := d.dfs(e.to, t, min(f, e.cap)); got > 1e-12 {
				e.cap -= got
				d.adj[e.to][e.rev].cap += got
				return got
			}
		}
	}
	return 0
}

func (d *refDinic) maxflow(s, t int) float64 {
	var flow float64
	for d.bfs(s, t) {
		clear(d.iter)
		for {
			f := d.dfs(s, t, math.Inf(1))
			if f <= 1e-12 {
				break
			}
			flow += f
		}
	}
	return flow
}

// refPartitionFlow is the oracle's PartitionFlow: a fresh network per cut.
func refPartitionFlow(g *Graph, left, right []int) float64 {
	d := newRefDinic(g.n + 2)
	src, sink := g.n, g.n+1
	for u, a := range g.adj {
		for _, e := range a {
			d.addEdge(u, e.To, e.Cap)
		}
	}
	for _, u := range left {
		d.addEdge(src, u, math.MaxFloat64/4)
	}
	for _, v := range right {
		d.addEdge(v, sink, math.MaxFloat64/4)
	}
	return d.maxflow(src, sink)
}

// refBisection is the oracle's BisectionBandwidth, drawing the same cuts.
func refBisection(g *Graph, cuts int, rng *rand.Rand) float64 {
	perm := make([]int, g.n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	for c := 0; c < cuts; c++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		best = min(best, refPartitionFlow(g, perm[:g.n/2], perm[g.n/2:]))
	}
	return best
}

// randomMultigraph draws a graph of up to 64 nodes with whole-number
// capacities and parallel edges, and the same graph with every parallel
// bundle merged into one edge of the bundle's total capacity.
func randomMultigraph(rng *rand.Rand) (multi, merged *Graph) {
	n := 2 + rng.Intn(63)
	multi, merged = New(n), New(n)
	p := rng.Float64() * 0.3
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() >= p {
				continue
			}
			total := 0.0
			for k := 1 + rng.Intn(3); k > 0; k-- {
				c := float64(1 + rng.Intn(4))
				multi.AddEdgeCap(u, v, c)
				total += c
			}
			merged.AddEdgeCap(u, v, total)
		}
	}
	return multi, merged
}

// TestFlowNetMatchesReferenceDinic requires PartitionFlow, MaxFlow and
// BisectionBandwidth — capped and uncapped — to equal the reference Dinic
// exactly on 240 random multigraphs, with and without merged parallel
// edges.
func TestFlowNetMatchesReferenceDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 240; trial++ {
		multi, merged := randomMultigraph(rng)
		n := multi.N()
		perm := rng.Perm(n)
		split := 1 + rng.Intn(n-1)
		left, right := perm[:split], perm[split:]
		want := refPartitionFlow(multi, left, right)
		for _, c := range []struct {
			name string
			g    *Graph
		}{{"multi", multi}, {"merged", merged}} {
			name, g := c.name, c.g
			if got := g.PartitionFlow(left, right); got != want {
				t.Fatalf("trial %d (%s, N=%d): PartitionFlow = %v, reference %v", trial, name, n, got, want)
			}
			if got, ref := g.MaxFlow(perm[0], perm[n-1]), refPartitionFlow(multi, perm[:1], perm[n-1:]); got != ref {
				t.Fatalf("trial %d (%s, N=%d): MaxFlow = %v, reference %v", trial, name, n, got, ref)
			}
			seed := rng.Int63()
			ref := refBisection(multi, 4, rand.New(rand.NewSource(seed)))
			if got := g.BisectionBandwidth(4, rand.New(rand.NewSource(seed)), math.Inf(1)); got != ref {
				t.Fatalf("trial %d (%s, N=%d): BisectionBandwidth = %v, reference %v", trial, name, n, got, ref)
			}
			limit := float64(rng.Intn(int(ref) + 2))
			if got := g.BisectionBandwidth(4, rand.New(rand.NewSource(seed)), limit); got != min(ref, limit) {
				t.Fatalf("trial %d (%s, N=%d): BisectionBandwidth capped at %v = %v, want %v", trial, name, n, limit, got, min(ref, limit))
			}
		}
	}
}
