package stringfigure

import (
	"fmt"
	"sync"

	"repro/internal/design"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Network is a deployed memory-network design with routing and, for the
// String Figure family, elastic reconfiguration. Read-side methods and
// session runs, gated ones included, may be used from multiple
// goroutines; the public reconfiguration calls serialize against them.
type Network struct {
	// d.Alg is the one router every routing read goes through.
	d *design.Design
	// net is the reconfiguration engine, non-nil only for the sf design
	// (and its wire variants); it adopts d.Alg and edits its tables. Only
	// GateOff, GateOn and SetMounted reconfigure it: a gated session runs
	// on a copy (reconfig.Network.Copy).
	net *reconfig.Network
	// cluster, when attached via WithCluster, runs every sweep point that
	// can travel; nil keeps every run in-process.
	cluster *Cluster

	// mu serializes the public reconfiguration calls (write side) against
	// concurrent sessions and topology queries (read side).
	mu sync.RWMutex

	// routes is the route cache every gate-free session of this network
	// simulates on (nil for designs whose routing is adaptive at every
	// hop). Its entries are functions of the routing tables and the active
	// adjacency, so it lives for one table epoch: sessions fill it under
	// mu's read side, and reconfigure, the one path that mutates the
	// tables, holds the write side and ends the epoch with routes.Reset —
	// no session is reading then.
	routes *netsim.RouteCache
}

// Design returns the design name ("dm", "odm", "fb", "afb", "s2" or "sf").
func (n *Network) Design() string { return n.d.Spec.Kind }

// Nodes returns the designed memory-node count.
func (n *Network) Nodes() int { return n.d.N }

// Routers returns the network router count. It differs from Nodes for the
// concentrated FB/AFB designs, which host several memory nodes per router.
func (n *Network) Routers() int { return n.d.Routers }

// Ports returns the router port count.
func (n *Network) Ports() int { return n.d.Ports }

// PortBudget returns the per-router physical connection bound the design
// guarantees (the Section IV wiring bounds for the String Figure family,
// the port count elsewhere).
func (n *Network) PortBudget() int { return n.d.PortBudget }

// NodeRouter returns the router hosting memory node v, or -1 for an
// out-of-range index. It is the identity for every design except the
// concentrated FB/AFB butterflies.
func (n *Network) NodeRouter(v int) int {
	if v < 0 || v >= n.d.N {
		return -1
	}
	return n.d.NodeRouter(v)
}

// RouterNodes returns the memory nodes hosted by router r (possibly empty
// at small scales on concentrated designs), or nil for an out-of-range
// index.
func (n *Network) RouterNodes(r int) []int {
	if r < 0 || r >= n.d.Routers {
		return nil
	}
	return append([]int(nil), n.d.RouterNodes[r]...)
}

// Spaces returns the number of virtual coordinate spaces (ports/2) for the
// String Figure family, 0 for designs without coordinate spaces.
func (n *Network) Spaces() int {
	if n.d.SF == nil {
		return 0
	}
	return n.d.SF.Spaces
}

// Coordinate returns node v's virtual coordinate in space s, in [0,1).
// Out-of-range indices and coordinate-free designs return 0.
func (n *Network) Coordinate(space, v int) float64 {
	if n.d.SF == nil || space < 0 || space >= n.d.SF.Spaces || v < 0 || v >= n.d.N {
		return 0
	}
	return n.d.SF.Coord[space][v]
}

// OutNeighbors returns the active out-link targets of router v, or nil for
// an out-of-range index.
func (n *Network) OutNeighbors(v int) []int {
	if v < 0 || v >= n.d.Routers {
		return nil
	}
	if n.net == nil {
		return append([]int(nil), n.d.Out[v]...)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := n.net.OutNeighbors()[v]
	return append([]int(nil), out...)
}

// Route returns the design's deterministic routing path between the routers
// of memory nodes src and dst, including both endpoints (for every design
// except FB/AFB, routers and nodes coincide): the first candidate of the
// design's router at every hop. It reports ErrOutOfRange for invalid
// indices, ErrNodeDead when either endpoint is powered off, and
// ErrNotRoutable when forwarding fails (only on a corrupted routing table).
func (n *Network) Route(src, dst int) ([]int, error) {
	if src < 0 || src >= n.d.N || dst < 0 || dst >= n.d.N {
		return nil, fmt.Errorf("%w: route %d -> %d on %d nodes", ErrOutOfRange, src, dst, n.d.N)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.net != nil && (!n.net.Alive(src) || !n.net.Alive(dst)) {
		return nil, fmt.Errorf("%w: route %d -> %d", ErrNodeDead, src, dst)
	}
	cur, dstR := n.d.NodeRouter(src), n.d.NodeRouter(dst)
	path := []int{cur}
	for cur != dstR {
		cands := n.d.Alg.Candidates(cur, dstR)
		if len(cands) == 0 || len(path) > n.d.Routers {
			return nil, fmt.Errorf("%w: route %d -> %d stalled at router %d", ErrNotRoutable, src, dst, cur)
		}
		cur = cands[0]
		path = append(path, cur)
	}
	return path, nil
}

// MD returns the minimum circular distance between two nodes, the metric
// greediest routing descends (clockwise-only on the uni-directional sf
// variant). Out-of-range indices and designs without greediest routing
// return 0.
func (n *Network) MD(u, v int) float64 {
	g, ok := n.d.Alg.(*routing.Greediest)
	if !ok || u < 0 || u >= n.d.N || v < 0 || v >= n.d.N {
		return 0
	}
	return g.MD(u, v)
}

// GateOff powers a node down: in one atomic step it switches the links and
// swaps in rebuilt routing tables for the routers whose neighborhood
// changed; ring healing through shortcut wires keeps every alive pair
// routable. It reports ErrNotReconfigurable on the baseline designs.
func (n *Network) GateOff(v int) error {
	return n.gate("gate off", v, (*reconfig.Network).GateOff)
}

// GateOn powers a node back up.
func (n *Network) GateOn(v int) error {
	return n.gate("gate on", v, (*reconfig.Network).GateOn)
}

// SetMounted applies a bulk alive mask — the static expansion/reduction
// path for design reuse.
func (n *Network) SetMounted(mounted []bool) error {
	return n.reconfigure("set mounted", func(e *reconfig.Network) error { return e.SetAlive(mounted) })
}

// gate runs one single-node engine call through reconfigure, refusing an
// out-of-range node with ErrOutOfRange.
func (n *Network) gate(op string, v int, call func(*reconfig.Network, int) error) error {
	return n.reconfigure(op, func(e *reconfig.Network) error {
		if v < 0 || v >= n.d.N {
			return fmt.Errorf("%w: %s %d on %d nodes", ErrOutOfRange, op, v, n.d.N)
		}
		return call(e, v)
	})
}

// reconfigure is the one path of the public reconfiguration calls: it
// reports ErrNotReconfigurable on designs without an engine, and otherwise
// runs apply on the engine under the write lock and ends the route cache's
// epoch, whose entries may describe the tables apply replaced.
func (n *Network) reconfigure(op string, apply func(*reconfig.Network) error) error {
	if n.net == nil {
		return fmt.Errorf("%w: %s on %s", ErrNotReconfigurable, op, n.d.Spec.Kind)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.routes.Reset()
	return apply(n.net)
}

// Alive reports whether node v is powered on (false for out-of-range
// indices; always true on designs without reconfiguration).
func (n *Network) Alive(v int) bool {
	if v < 0 || v >= n.d.N {
		return false
	}
	if n.net == nil {
		return true
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.Alive(v)
}

// AliveCount returns the number of powered-on nodes.
func (n *Network) AliveCount() int {
	if n.net == nil {
		return n.d.N
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.AliveCount()
}

// ReconfigStats summarizes reconfiguration work so far.
type ReconfigStats struct {
	Reconfigs        int
	LinksDisabled    int
	LinksEnabled     int
	HealedByShortcut int
	HealedBySwitch   int
}

// ReconfigStats returns the accumulated reconfiguration statistics (zero on
// designs without reconfiguration).
func (n *Network) ReconfigStats() ReconfigStats {
	if n.net == nil {
		return ReconfigStats{}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := n.net.Stats
	return ReconfigStats{
		Reconfigs:        s.Reconfigs,
		LinksDisabled:    s.LinksDisabled,
		LinksEnabled:     s.LinksEnabled,
		HealedByShortcut: s.HealedByShortcut,
		HealedBySwitch:   s.HealedBySwitch,
	}
}

// PathStats summarizes shortest-path lengths over the active network.
type PathStats struct {
	Mean     float64
	P10, P90 int
	Diameter int
}

// PathLengths computes shortest-path statistics over the alive routers
// using BFS from up to maxSources sampled sources (0 = all).
func (n *Network) PathLengths(maxSources int) PathStats {
	if maxSources <= 0 || maxSources > n.d.Routers {
		maxSources = n.d.Routers
	}
	if n.net == nil {
		alive := make([]bool, n.d.Routers)
		for i := range alive {
			alive[i] = true
		}
		st := n.d.Graph.InducedSubgraphStats(alive, maxSources)
		return PathStats{Mean: st.Mean, P10: st.P10, P90: st.P90, Diameter: st.Diameter}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	g := n.net.Graph()
	// Sample alive sources only.
	st := g.InducedSubgraphStats(n.net.AliveSlice(), maxSources)
	return PathStats{Mean: st.Mean, P10: st.P10, P90: st.P90, Diameter: st.Diameter}
}

// Series re-exports the experiment output table type for tooling built on
// this package.
type Series = stats.Series
