package stringfigure

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/design"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Network is a deployed memory-network design with routing and, for the
// String Figure family, elastic reconfiguration. Every method may be used
// from multiple goroutines. The network's state is one published epoch,
// the same record on every design: a read or a run loads it once and keeps
// it to its end, and GateOff, GateOn and SetMounted publish a new one
// without waiting for anyone.
type Network struct {
	// d.Alg is the router the design built. On sf it is the first epoch's
	// router, and nothing edits it: a reconfiguration routes a copy.
	d *design.Design
	// cluster, when attached via WithCluster, runs every sweep point that
	// can travel; nil keeps every run in-process.
	cluster *Cluster
	// cur is the current epoch; only reconfigure replaces it.
	cur atomic.Pointer[epoch]
}

// epoch is one immutable state of a Network, one record for every design.
// A reconfiguration copies the engine, applies its change to the copy and
// publishes newEpoch's epoch around the copy, so a run that loaded an
// epoch sees one table set and one alive mask to its end.
type epoch struct {
	// net is the reconfiguration engine, nil exactly on the designs that
	// cannot reconfigure; only reconfigure, newGateRig and ReconfigStats
	// ask which.
	net *reconfig.Network
	// alive is the node mask (all true without an engine) that reads
	// report, schedules compile against and gate-free runs inject under.
	alive []bool
	// sim is every session's simulator template: the design's NetCfg(0)
	// with the epoch's router, VC policy, Out and ring escape, and as
	// Routes the route cache the epoch's gate-free sessions share. The
	// cache's entries are functions of the epoch's tables, so every epoch
	// brings an empty one.
	sim netsim.Config
}

// newEpoch builds the epoch of design d around engine net (nil on designs
// that cannot reconfigure), for the build and for every reconfiguration.
func newEpoch(d *design.Design, net *reconfig.Network) *epoch {
	ep := &epoch{net: net, alive: slices.Repeat([]bool{true}, d.N), sim: d.NetCfg(0)}
	if net != nil {
		ep.alive = net.AliveSlice()
		ep.sim.Alg, ep.sim.VCPolicy = net.Router, net.Router.VirtualChannel
		ep.sim.Out = net.OutNeighbors()
		ep.sim.EscapeRoute = netsim.RingEscape(d.SF, ep.alive)
	}
	ep.sim.Routes = netsim.NewRouteCache(d.Routers)
	return ep
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
	return append([]int(nil), n.cur.Load().sim.Out[v]...)
}

// Route returns the design's deterministic routing path between the routers
// of memory nodes src and dst, including both endpoints (for every design
// except FB/AFB, routers and nodes coincide): the first candidate of the
// current epoch's router at every hop. It reports ErrOutOfRange for invalid
// indices, ErrNodeDead when either endpoint is powered off, and
// ErrNotRoutable when forwarding fails (only on a corrupted routing table).
func (n *Network) Route(src, dst int) ([]int, error) {
	if src < 0 || src >= n.d.N || dst < 0 || dst >= n.d.N {
		return nil, fmt.Errorf("%w: route %d -> %d on %d nodes", ErrOutOfRange, src, dst, n.d.N)
	}
	ep := n.cur.Load()
	if !ep.alive[src] || !ep.alive[dst] {
		return nil, fmt.Errorf("%w: route %d -> %d", ErrNodeDead, src, dst)
	}
	cur, dstR := n.d.NodeRouter(src), n.d.NodeRouter(dst)
	path := []int{cur}
	for cur != dstR {
		cands := ep.sim.Alg.Candidates(cur, dstR)
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
// publishes rebuilt routing tables for the routers whose neighborhood
// changed; ring healing through shortcut wires keeps every alive pair
// routable. Runs already going keep the state they started on. It reports
// ErrNotReconfigurable on the baseline designs.
func (n *Network) GateOff(v int) error { return n.gate("gate off", v, false) }

// GateOn powers a node back up.
func (n *Network) GateOn(v int) error { return n.gate("gate on", v, true) }

// SetMounted applies a bulk alive mask in the same one step — the static
// expansion/reduction path for design reuse.
func (n *Network) SetMounted(mounted []bool) error {
	return n.reconfigure("set mounted", func(e *reconfig.Network) error { return e.SetAlive(mounted) })
}

// gate powers node v on or off through reconfigure, refusing an
// out-of-range node with ErrOutOfRange.
func (n *Network) gate(op string, v int, on bool) error {
	return n.reconfigure(op, func(e *reconfig.Network) error {
		if v < 0 || v >= n.d.N {
			return fmt.Errorf("%w: %s %d on %d nodes", ErrOutOfRange, op, v, n.d.N)
		}
		_, err := e.Gate(v, on)
		return err
	})
}

// reconfigure is the one path of the public reconfiguration calls: it
// reports ErrNotReconfigurable on designs without an engine, and otherwise
// runs apply on a copy of the current epoch's engine and publishes the copy,
// with an empty route cache, as the next epoch. A reconfiguration that loses
// the race to publish retries on the epoch that won, so concurrent calls
// apply in some order and none is lost.
func (n *Network) reconfigure(op string, apply func(*reconfig.Network) error) error {
	for {
		ep := n.cur.Load()
		if ep.net == nil {
			return fmt.Errorf("%w: %s on %s", ErrNotReconfigurable, op, n.d.Spec.Kind)
		}
		next := ep.net.Copy()
		if err := apply(next); err != nil {
			return err
		}
		if n.cur.CompareAndSwap(ep, newEpoch(n.d, next)) {
			return nil
		}
	}
}

// Alive reports whether node v is powered on (false for out-of-range
// indices; always true on designs without reconfiguration).
func (n *Network) Alive(v int) bool {
	return v >= 0 && v < n.d.N && n.cur.Load().alive[v]
}

// AliveCount returns the number of powered-on nodes.
func (n *Network) AliveCount() int {
	return len(indices(n.cur.Load().alive))
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
	ep := n.cur.Load()
	if ep.net == nil {
		return ReconfigStats{}
	}
	s := ep.net.Stats
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
// using BFS from up to maxSources sampled alive sources (0 = all).
func (n *Network) PathLengths(maxSources int) PathStats {
	if maxSources <= 0 || maxSources > n.d.Routers {
		maxSources = n.d.Routers
	}
	ep := n.cur.Load()
	st := graph.FromOut(ep.sim.Out).InducedSubgraphStats(n.routerMask(ep.alive), maxSources)
	return PathStats{Mean: st.Mean, P10: st.P10, P90: st.P90, Diameter: st.Diameter}
}

// routerMask maps a node mask onto the routers: a router is powered while
// it hosts an alive node, or when it hosts none (a concentrated design's
// spare router at small scale).
func (n *Network) routerMask(alive []bool) []bool {
	mask := make([]bool, n.d.Routers)
	for r, nodes := range n.d.RouterNodes {
		mask[r] = len(nodes) == 0 || slices.ContainsFunc(nodes, func(v int) bool { return alive[v] })
	}
	return mask
}

// indices returns the positions of mask's true entries, ascending.
func indices(mask []bool) []int {
	var on []int
	for i, a := range mask {
		if a {
			on = append(on, i)
		}
	}
	return on
}

// Series re-exports the experiment output table type for tooling built on
// this package.
type Series = stats.Series
