package graph

import (
	"math"
	"math/rand"
)

// flowNet is the residual network of one graph, built once and reused for
// every flow computed over it: Dinic's algorithm over arcs in compressed
// sparse rows. Every edge u->v of the graph is an arc pair (u->v at the
// edge's capacity, v->u at 0), and every node u also has an arc pair from
// the super-source (node n) and one to the super-sink (node n+1), both at
// capacity 0 until a cut opens them. A cut therefore resets capacities and
// opens its two node sets' arcs; nothing is allocated per cut.
//
// Every capacity in the repository's graphs is a whole number and the open
// source/sink arcs carry one constant, so each augmentation pushes a whole
// number and a flow's value — unique whatever the augmentation order — is
// summed exactly.
type flowNet struct {
	n int // graph nodes; the super-source is n, the super-sink n+1
	// The arcs of node u are start[u] up to start[u+1]: arc a leads to
	// head[a], rev[a] is its reverse arc, base[a] its capacity before any
	// cut, res[a] its residual capacity.
	start, head, rev []int32
	base, res        []float64
	// srcArc[u] is the arc source->u, sinkArc[u] the arc u->sink.
	srcArc, sinkArc []int32
	// Dinic's per-phase state: BFS levels, each node's next arc to try,
	// and the BFS queue.
	level, iter, queue []int32
}

// openCap is the capacity of an open super-source or super-sink arc: no
// cut of a graph carries that much.
const openCap = math.MaxFloat64 / 4

// flowEps is the residual capacity below which an arc counts as saturated.
const flowEps = 1e-12

// newFlowNet builds g's residual network. Within a node's row the arcs keep
// the order the edges were added in, with its source and sink arcs last.
func newFlowNet(g *Graph) *flowNet {
	n := g.n
	nodes := n + 2
	src, sink := int32(n), int32(n+1)
	start := make([]int32, nodes+1)
	arcs := 4 * n // each node's source and sink pair
	for u, a := range g.adj {
		start[u+1] += int32(len(a) + 2)
		for _, e := range a {
			start[e.To+1]++
		}
		arcs += 2 * len(a)
	}
	start[src+1], start[sink+1] = int32(n), int32(n)
	for u := 1; u <= nodes; u++ {
		start[u] += start[u-1]
	}
	f := &flowNet{
		n: n, start: start,
		head: make([]int32, arcs), rev: make([]int32, arcs),
		base: make([]float64, arcs), res: make([]float64, arcs),
		srcArc: make([]int32, n), sinkArc: make([]int32, n),
		level: make([]int32, nodes), iter: make([]int32, nodes),
		queue: make([]int32, nodes),
	}
	next := f.iter // free until the first flow: each row's fill cursor
	copy(next, start)
	pair := func(u, v int32, c float64) int32 {
		a, b := next[u], next[v]
		next[u]++
		next[v]++
		f.head[a], f.rev[a], f.base[a] = v, b, c
		f.head[b], f.rev[b] = u, a
		return a
	}
	for u, a := range g.adj {
		for _, e := range a {
			pair(int32(u), int32(e.To), e.Cap)
		}
	}
	for u := range int32(n) {
		f.srcArc[u] = pair(src, u, 0)
		f.sinkArc[u] = pair(u, sink, 0)
	}
	return f
}

// cut returns the maximum flow from the nodes of left to the nodes of
// right, stopping once it reaches limit: the result is min(max-flow,
// limit), exact, with limit = +Inf computing the full flow.
func (f *flowNet) cut(left, right []int, limit float64) float64 {
	copy(f.res, f.base)
	for _, u := range left {
		f.res[f.srcArc[u]] = openCap
	}
	for _, v := range right {
		f.res[f.sinkArc[v]] = openCap
	}
	s, t := int32(f.n), int32(f.n+1)
	var flow float64
	for flow < limit && f.bfs(s, t) {
		copy(f.iter, f.start)
		for flow < limit {
			got := f.dfs(s, t, limit-flow)
			if got <= flowEps {
				break
			}
			flow += got
		}
	}
	return flow
}

// bfs levels the residual network from s and reports whether t is reached.
func (f *flowNet) bfs(s, t int32) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	q := f.queue[:1]
	q[0] = s
	for i := 0; i < len(q); i++ {
		u := q[i]
		lu := f.level[u] + 1
		for a := f.start[u]; a < f.start[u+1]; a++ {
			if v := f.head[a]; f.res[a] > flowEps && f.level[v] < 0 {
				f.level[v] = lu
				q = append(q, v)
			}
		}
	}
	return f.level[t] >= 0
}

// dfs pushes one augmenting path of at most push units from u to t along
// the level graph and returns the amount pushed (0 when none is left).
func (f *flowNet) dfs(u, t int32, push float64) float64 {
	if u == t {
		return push
	}
	for ; f.iter[u] < f.start[u+1]; f.iter[u]++ {
		a := f.iter[u]
		v := f.head[a]
		if f.res[a] > flowEps && f.level[v] == f.level[u]+1 {
			if got := f.dfs(v, t, min(push, f.res[a])); got > flowEps {
				f.res[a] -= got
				f.res[f.rev[a]] += got
				return got
			}
		}
	}
	return 0
}

// MaxFlow returns the maximum s-t flow over the graph's directed edges.
func (g *Graph) MaxFlow(s, t int) float64 {
	return g.PartitionFlow([]int{s}, []int{t})
}

// PartitionFlow computes the maximum aggregate flow between two node sets by
// attaching a super-source to every node in left and a super-sink to every
// node in right, with infinite source/sink capacities. This is the flow
// across one random bisection cut of Section V.
func (g *Graph) PartitionFlow(left, right []int) float64 {
	return newFlowNet(g).cut(left, right, math.Inf(1))
}

// BisectionBandwidth estimates the empirical minimum bisection bandwidth per
// the paper's methodology: split the nodes into two random halves, compute
// the max flow between the halves, repeat `cuts` times (paper: 50) and return
// the minimum observed flow. Each cut's flow stops once it reaches limit, so
// the result is min(bisection, limit), exact; limit = +Inf computes every
// cut in full. All cuts share one residual network.
func (g *Graph) BisectionBandwidth(cuts int, rng *rand.Rand, limit float64) float64 {
	if g.n < 2 {
		return 0
	}
	net := newFlowNet(g)
	perm := make([]int, g.n)
	for i := range perm {
		perm[i] = i
	}
	min := math.Inf(1)
	for c := 0; c < cuts; c++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		half := g.n / 2
		if flow := net.cut(perm[:half], perm[half:], limit); flow < min {
			min = flow
		}
	}
	return min
}
