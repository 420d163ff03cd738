package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Graph is a directed multigraph over nodes 0..N-1. Links are stored as flat
// adjacency slices for cache-friendly traversal; parallel edges are allowed
// (ODM uses them to model widened channels) and each directed edge carries a
// capacity used by max-flow.
type Graph struct {
	n   int
	adj [][]Edge
}

// Edge is one directed link of the graph.
type Edge struct {
	To  int
	Cap float64 // link capacity in abstract bandwidth units (1.0 = one lane bundle)
}

// New creates an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// FromOut returns the graph of an out-adjacency: one edge u->v of
// capacity 1 for every entry v of out[u].
func FromOut(out [][]int) *Graph {
	g := New(len(out))
	for u, nbrs := range out {
		for _, v := range nbrs {
			g.AddEdge(u, v)
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge u->v with capacity 1.
func (g *Graph) AddEdge(u, v int) { g.AddEdgeCap(u, v, 1) }

// AddEdgeCap adds a directed edge u->v with the given capacity.
func (g *Graph) AddEdgeCap(u, v int, cap float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		panic(fmt.Sprintf("graph: invalid edge %d->%d (n=%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Cap: cap})
}

// AddBiEdge adds both u->v and v->u with capacity 1.
func (g *Graph) AddBiEdge(u, v int) {
	g.AddEdge(u, v)
	g.AddEdge(v, u)
}

// HasEdge reports whether at least one directed edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the out-neighbors of u, including duplicates for parallel
// edges. The returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// OutDegree returns the number of outgoing edges of u (parallel edges count).
func (g *Graph) OutDegree(u int) int { return len(g.adj[u]) }

// UniqueOutNeighbors returns the sorted distinct out-neighbors of u.
func (g *Graph) UniqueOutNeighbors(u int) []int {
	var out []int
	for _, e := range g.adj[u] {
		out = append(out, e.To)
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// EdgeCount returns the total number of directed edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// MaxOutDegree returns the largest out-degree over all nodes.
func (g *Graph) MaxOutDegree() int {
	m := 0
	for _, a := range g.adj {
		if len(a) > m {
			m = len(a)
		}
	}
	return m
}

// BFS computes directed shortest hop distances from src. Unreachable nodes
// get distance -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// Connected reports whether every node is reachable from node 0 following
// directed edges (the property the reconfiguration engine must preserve).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// StronglyConnected reports whether every ordered pair of nodes is mutually
// reachable. For uni-directional topologies this is the delivery guarantee.
func (g *Graph) StronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	if !g.Connected() {
		return false
	}
	rev := New(g.n)
	for u, a := range g.adj {
		for _, e := range a {
			rev.AddEdge(e.To, u)
		}
	}
	return rev.Connected()
}

// PathLengthStats holds all-pairs shortest-path statistics of a topology,
// the raw material of Figure 5 and Figure 9(a).
type PathLengthStats struct {
	Mean     float64
	P10      int // 10th percentile
	P90      int // 90th percentile
	Max      int // diameter over the sampled pairs
	Pairs    int64
	Hist     *stats.Histogram
	Diameter int
}

// AllPairsPathLengths runs BFS from every source and aggregates shortest-path
// length statistics over all ordered reachable pairs. It panics if any pair
// is unreachable, since every evaluated topology must be strongly connected.
func (g *Graph) AllPairsPathLengths() PathLengthStats {
	return g.SampledPathLengths(g.n, rand.New(rand.NewSource(1)))
}

// SampledPathLengths aggregates shortest-path statistics using BFS from a
// uniform sample of sources (all sources when sources >= N). Sampling keeps
// the N=1296 sweeps fast while remaining exact per source.
func (g *Graph) SampledPathLengths(sources int, rng *rand.Rand) PathLengthStats {
	hist := &stats.Histogram{}
	srcs := make([]int, g.n)
	for i := range srcs {
		srcs[i] = i
	}
	if sources < g.n {
		rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
		srcs = srcs[:sources]
	}
	diameter := 0
	for _, s := range srcs {
		dist := g.BFS(s)
		for v, d := range dist {
			if v == s {
				continue
			}
			if d < 0 {
				panic(fmt.Sprintf("graph: node %d unreachable from %d", v, s))
			}
			hist.Observe(d)
			if d > diameter {
				diameter = d
			}
		}
	}
	return PathLengthStats{
		Mean:     hist.Mean(),
		P10:      hist.Percentile(0.10),
		P90:      hist.Percentile(0.90),
		Max:      hist.Max(),
		Pairs:    hist.Total(),
		Hist:     hist,
		Diameter: diameter,
	}
}

// InducedSubgraphStats computes shortest-path statistics over the nodes
// with alive[v] == true, using BFS from up to maxSources alive sources
// (sampled round-robin for determinism). Unreachable alive pairs are
// skipped (the caller's topology invariants make them impossible in normal
// operation).
func (g *Graph) InducedSubgraphStats(alive []bool, maxSources int) PathLengthStats {
	var sources []int
	for v := 0; v < g.n; v++ {
		if alive == nil || alive[v] {
			sources = append(sources, v)
		}
	}
	if maxSources > 0 && maxSources < len(sources) {
		stride := len(sources) / maxSources
		var sampled []int
		for i := 0; i < len(sources) && len(sampled) < maxSources; i += stride {
			sampled = append(sampled, sources[i])
		}
		sources = sampled
	}
	hist := &stats.Histogram{}
	diameter := 0
	for _, s := range sources {
		dist := g.BFS(s)
		for v, d := range dist {
			if v == s || d < 0 {
				continue
			}
			if alive != nil && !alive[v] {
				continue
			}
			hist.Observe(d)
			if d > diameter {
				diameter = d
			}
		}
	}
	return PathLengthStats{
		Mean:     hist.Mean(),
		P10:      hist.Percentile(0.10),
		P90:      hist.Percentile(0.90),
		Max:      hist.Max(),
		Pairs:    hist.Total(),
		Hist:     hist,
		Diameter: diameter,
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, a := range g.adj {
		c.adj[u] = append([]Edge(nil), a...)
	}
	return c
}

// InducedSubgraph returns the subgraph over the nodes where alive[i] is true,
// keeping original node indices (dead nodes become isolated).
func (g *Graph) InducedSubgraph(alive []bool) *Graph {
	c := New(g.n)
	for u, a := range g.adj {
		if !alive[u] {
			continue
		}
		for _, e := range a {
			if alive[e.To] {
				c.adj[u] = append(c.adj[u], e)
			}
		}
	}
	return c
}
