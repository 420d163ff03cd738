package netsim

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// RingEscape builds the escape routing function for a String Figure (or S2)
// network: escape packets follow the Virtual Space-0 ring clockwise over the
// alive nodes, which is a Hamiltonian cycle of the active topology by
// construction (ring links plus shortcut healing). The escape channels use
// the classic dateline discipline: VC 0 while the current node's ring rank
// is above the destination's (the packet still has to cross the rank-0
// dateline), VC 1 afterwards, which makes the escape channel dependency
// graph acyclic and the whole network deadlock-free under Duato's protocol.
//
// alive may be nil (all nodes alive). Rebuild the function after every
// reconfiguration. Use EscapeVCs: 2 with this route.
func RingEscape(sf *topology.StringFigure, alive []bool) func(cur, dst int) (int, int) {
	n := sf.Cfg.N
	succ := make([]int, n)
	for v := 0; v < n; v++ {
		if alive != nil && !alive[v] {
			succ[v] = -1
			continue
		}
		succ[v] = sf.Successor(0, v, alive)
	}
	rank := sf.Rank[0]
	return func(cur, dst int) (int, int) {
		next := succ[cur]
		if rank[cur] > rank[dst] {
			return next, 0 // dateline (rank N-1 -> 0) still ahead
		}
		return next, 1
	}
}

// SFPolicy is the paper's String Figure simulator policy around an existing
// greediest router: the coordinate-direction virtual-channel split over two
// adaptive channels, two escape channels for the ring dateline, and adaptive
// first-hop selection. The caller supplies Out and EscapeRoute for the
// adjacency and alive mask g's tables describe; g is only read, so one
// router serves any number of configurations.
func SFPolicy(g *routing.Greediest, seed int64) Config {
	return Config{
		Alg:       g,
		VCPolicy:  g.VirtualChannel,
		EscapeVCs: 2,
		Adaptive:  AdaptiveFirstHop,
		Seed:      seed,
	}
}

// SFConfig assembles the simulator configuration for a full-scale String
// Figure network with the paper's policies: a freshly built greediest
// router with two-hop lookahead under SFPolicy, and the Space-0 ring
// escape. Callers that already hold a router use SFPolicy and skip the
// table build.
func SFConfig(sf *topology.StringFigure, seed int64) Config {
	cfg := SFPolicy(routing.NewGreediest(sf, 0), seed)
	cfg.Out = sf.OutNeighbors()
	cfg.EscapeRoute = RingEscape(sf, nil)
	return cfg
}
