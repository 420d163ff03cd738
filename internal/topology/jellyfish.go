package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Jellyfish is the random regular graph baseline (Singla et al., NSDI'12)
// used in the Figure 5 path-length comparison. Each node has Degree
// bidirectional links wired by the configuration-model pairing process with
// local rewiring to repair duplicates and self-loops, which samples
// sufficiently uniformly from the space of r-regular graphs.
type Jellyfish struct {
	N      int
	Degree int
	adj    [][]int
}

// NewJellyfish samples a random Degree-regular topology over n nodes.
// n*degree must be even and degree < n.
func NewJellyfish(n, degree int, seed int64) (*Jellyfish, error) {
	if n < 2 || degree < 2 || degree >= n {
		return nil, fmt.Errorf("topology: jellyfish needs 2 <= degree < n, got n=%d degree=%d", n, degree)
	}
	if n*degree%2 != 0 {
		return nil, fmt.Errorf("topology: jellyfish needs n*degree even, got n=%d degree=%d", n, degree)
	}
	rng := rand.New(rand.NewSource(seed))
	j := &Jellyfish{N: n, Degree: degree}
	const attempts = 200
	for a := 0; a < attempts; a++ {
		if adj, ok := samplePairing(n, degree, rng); ok {
			j.adj = adj
			return j, nil
		}
	}
	return nil, fmt.Errorf("topology: failed to sample a %d-regular graph over %d nodes", degree, n)
}

// samplePairing runs one round of the configuration model: every node
// contributes `degree` stubs, stubs are shuffled and paired, and pairs that
// would create self-loops or duplicate edges are repaired by rewiring
// against an already-accepted edge. Returns ok=false if repair fails.
func samplePairing(n, degree int, rng *rand.Rand) ([][]int, bool) {
	stubs := make([]int, 0, n*degree)
	for v := 0; v < n; v++ {
		for i := 0; i < degree; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	type pair struct{ u, v int }
	var accepted []pair
	has := make(map[[2]int]bool)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	addPair := func(u, v int) {
		accepted = append(accepted, pair{u, v})
		has[key(u, v)] = true
	}
	var bad []pair
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || has[key(u, v)] {
			bad = append(bad, pair{u, v})
			continue
		}
		addPair(u, v)
	}
	// Repair each bad pair by splicing with a random accepted edge:
	// (u,v)+(x,y) -> (u,x)+(v,y) when that creates two fresh valid edges.
	for _, p := range bad {
		repaired := false
		for try := 0; try < 400 && len(accepted) > 0; try++ {
			i := rng.Intn(len(accepted))
			q := accepted[i]
			x, y := q.u, q.v
			if p.u == x || p.u == y || p.v == x || p.v == y {
				continue
			}
			if has[key(p.u, x)] || has[key(p.v, y)] {
				continue
			}
			delete(has, key(x, y))
			accepted[i] = pair{p.u, x}
			has[key(p.u, x)] = true
			addPair(p.v, y)
			repaired = true
			break
		}
		if !repaired {
			return nil, false
		}
	}
	adj := make([][]int, n)
	for _, p := range accepted {
		adj[p.u] = append(adj[p.u], p.v)
		adj[p.v] = append(adj[p.v], p.u)
	}
	for v := range adj {
		if len(adj[v]) != degree {
			return nil, false
		}
	}
	return adj, true
}

// Graph returns the bidirectional link graph.
func (j *Jellyfish) Graph() *graph.Graph {
	deg := make([]int, j.N)
	for u, nbrs := range j.adj {
		deg[u] = len(nbrs)
	}
	g := graph.NewSized(deg)
	for u, nbrs := range j.adj {
		for _, v := range nbrs {
			if u < v {
				g.AddBiEdge(u, v)
			}
		}
	}
	return g
}

// Neighbors returns the neighbor list of node v.
func (j *Jellyfish) Neighbors(v int) []int { return j.adj[v] }
