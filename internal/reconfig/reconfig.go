package reconfig

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Timing captures the reconfiguration latencies the paper models: link sleep
// 680 ns, link wake-up 5 us, and a minimum interval between reconfigurations
// of 100 us (Section VI).
type Timing struct {
	LinkSleepNs   float64
	LinkWakeNs    float64
	MinIntervalNs float64
}

// DefaultTiming returns the paper's reconfiguration latencies.
func DefaultTiming() Timing {
	return Timing{LinkSleepNs: 680, LinkWakeNs: 5000, MinIntervalNs: 100_000}
}

// TransitionNs returns the modeled wall-clock cost of switching links:
// each disabled link costs a sleep transition and each enabled one a
// wake-up, serialized per the atomic protocol.
func (t Timing) TransitionNs(disabled, enabled int) float64 {
	return float64(disabled)*t.LinkSleepNs + float64(enabled)*t.LinkWakeNs
}

// Stats counts reconfiguration work, including how many ring-healing links
// were served by pre-provisioned shortcut wires versus the generic topology
// switch.
type Stats struct {
	Reconfigs        int
	LinksDisabled    int
	LinksEnabled     int
	HealedByShortcut int
	HealedBySwitch   int
	TablesRebuilt    int
}

// Network is a deployed String Figure network with elastic scale.
type Network struct {
	SF     *topology.StringFigure
	Router *routing.Greediest // its tables are replaced by every reconfiguration
	Stats  Stats

	alive []bool
	out   [][]int // active out-adjacency, derived from SF + alive
	// base (the full-scale adjacency) and shortcuts (the pre-provisioned
	// shortcut wires) list each node's wire targets, sorted, for healing
	// attribution.
	base, shortcuts [][]int
}

// New deploys a String Figure network at full scale with a router of its
// own.
func New(sf *topology.StringFigure) *Network {
	out := sf.OutNeighbors()
	return Adopt(sf, out, routing.NewGreediestOver(sf, 0, out))
}

// Adopt deploys a String Figure network at full scale around the router a
// design already built over out, sf's full-scale adjacency (OutNeighbors,
// which equals AdjacencyFor with every node alive). Reconfiguration swaps
// rebuilt tables into router.Tables, so a caller that shares router with
// other readers reconfigures a Copy instead.
func Adopt(sf *topology.StringFigure, out [][]int, router *routing.Greediest) *Network {
	n := &Network{
		SF:        sf,
		Router:    router,
		alive:     make([]bool, sf.Cfg.N),
		out:       out,
		base:      out,
		shortcuts: topology.OutLists(sf.Cfg.N, sf.Cfg.Bidirectional, sf.Shortcuts),
	}
	for i := range n.alive {
		n.alive[i] = true
	}
	return n
}

// Copy returns an engine whose reconfigurations leave n untouched. It
// shares what a reconfiguration only ever replaces — the topology, the
// adjacency rows and the built tables — and owns its alive mask and its
// router's table slice. Its Stats start from n's and count on. A copy
// costs one mask and one pointer per router.
func (n *Network) Copy() *Network {
	router := *n.Router
	router.Tables = slices.Clone(n.Router.Tables)
	c := *n
	c.Router = &router
	c.alive = slices.Clone(n.alive)
	return &c
}

// Alive reports whether node v is powered on.
func (n *Network) Alive(v int) bool { return n.alive[v] }

// AliveSlice returns a copy of the alive mask.
func (n *Network) AliveSlice() []bool { return append([]bool(nil), n.alive...) }

// AliveCount returns the number of powered-on nodes.
func (n *Network) AliveCount() int { return countAlive(n.alive) }

// countAlive returns the number of true entries of an alive mask.
func countAlive(alive []bool) int {
	c := 0
	for _, a := range alive {
		if a {
			c++
		}
	}
	return c
}

// OutNeighbors returns the active out-adjacency (shared; do not modify).
func (n *Network) OutNeighbors() [][]int { return n.out }

// Graph returns the directed graph of currently active links.
func (n *Network) Graph() *graph.Graph { return graph.FromOut(n.out) }

// AdjacencyFor computes the out-adjacency the network would activate under
// the given alive mask, without changing any state: every alive node links
// to its alive clockwise successor in each space (ring healing skips dead
// nodes), and extra pairing links stay active while both endpoints are
// alive. Shortcut wires are exactly the healed ring links whose Space-0 gap
// matches a pre-provisioned wire. Callers planning a gate schedule use it to
// enumerate the physical wires every phase of the schedule will need.
func (n *Network) AdjacencyFor(alive []bool) [][]int {
	sf := n.SF
	N := sf.Cfg.N
	wires := make([]topology.Link, 0, sf.Spaces*N+len(sf.Extras))
	for s := 0; s < sf.Spaces; s++ {
		for v := 0; v < N; v++ {
			if !alive[v] {
				continue
			}
			if w := sf.Successor(s, v, alive); w >= 0 {
				wires = append(wires, topology.Link{From: v, To: w})
			}
		}
	}
	for _, l := range sf.Extras {
		if alive[l.From] && alive[l.To] {
			wires = append(wires, l)
		}
	}
	return topology.OutLists(N, sf.Cfg.Bidirectional, wires)
}

// Gate powers node v on or off in one reconfiguration step and returns
// the links the step switched on. It refuses a gate-off that would leave
// fewer than two alive nodes.
func (n *Network) Gate(v int, on bool) ([]topology.Link, error) {
	if v < 0 || v >= len(n.alive) {
		return nil, fmt.Errorf("reconfig: node %d out of range", v)
	}
	if n.alive[v] == on {
		return nil, fmt.Errorf("reconfig: node %d already %s", v, map[bool]string{false: "off", true: "on"}[on])
	}
	if !on && n.AliveCount() <= 2 {
		return nil, fmt.Errorf("reconfig: refusing to gate node %d below two alive nodes", v)
	}
	n.alive[v] = on
	return n.reconfigure(), nil
}

// SetAlive applies a bulk alive mask in one reconfiguration step — the
// static expansion/reduction path for design reuse: a network fabricated
// for N nodes deploys with a subset mounted, and later mounts (or
// unmounts) nodes without refabrication.
func (n *Network) SetAlive(alive []bool) error {
	if len(alive) != len(n.alive) {
		return fmt.Errorf("reconfig: alive mask has %d entries, want %d", len(alive), len(n.alive))
	}
	if count := countAlive(alive); count < 2 {
		return fmt.Errorf("reconfig: need at least two mounted nodes, got %d", count)
	}
	copy(n.alive, alive)
	n.reconfigure()
	return nil
}

// reconfigure is the one reconfiguration step, taking the network to its
// alive mask: it switches the links, one merge per router (neighbor lists
// are ascending, as AdjacencyFor returns them), swaps in rebuilt tables
// for every alive router whose one- or two-hop neighborhood changed, and
// returns the links it switched on, ascending. Both ends of every switched
// link change; a dead router keeps the table it had.
func (n *Network) reconfigure() []topology.Link {
	n.Stats.Reconfigs++
	oldOut := n.out
	newOut := n.AdjacencyFor(n.alive)
	changed := make([]bool, len(n.alive))
	var enabled []topology.Link
	for u := range oldOut {
		MergeSorted(oldOut[u], newOut[u], func(w int, was, is bool) {
			if was == is {
				return
			}
			changed[u], changed[w] = true, true
			if was {
				n.Stats.LinksDisabled++
				return
			}
			n.Stats.LinksEnabled++
			enabled = append(enabled, topology.Link{From: u, To: w})
			if slices.Contains(n.shortcuts[u], w) {
				n.Stats.HealedByShortcut++
			} else if !slices.Contains(n.base[u], w) {
				n.Stats.HealedBySwitch++
			}
		})
	}
	n.out = newOut

	affected := n.affectedRouters(changed, oldOut)
	for _, u := range affected {
		n.Router.Tables[u] = routing.BuildTable(u, n.out)
	}
	n.Stats.TablesRebuilt += len(affected)
	return enabled
}

// affectedRouters returns, ascending, the alive routers whose tables are
// stale: those with changed out-links, or with a neighbor whose out-links
// changed. Old neighbors are enough: a new neighbor that was not an old
// one is a newly enabled link, which already marks u changed.
func (n *Network) affectedRouters(changed []bool, oldOut [][]int) []int {
	isChanged := func(w int) bool { return changed[w] }
	var affected []int
	for u := range n.out {
		if n.alive[u] && (changed[u] || slices.ContainsFunc(oldOut[u], isChanged)) {
			affected = append(affected, u)
		}
	}
	return affected
}

// MergeSorted walks two ascending lists without duplicates — neighbor
// lists as AdjacencyFor returns them — in one pass, calling visit once per
// distinct value in ascending order with whether a and b hold it.
func MergeSorted(a, b []int, visit func(v int, inA, inB bool)) {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			visit(a[0], true, false)
			a = a[1:]
		case len(a) == 0 || b[0] < a[0]:
			visit(b[0], false, true)
			b = b[1:]
		default:
			visit(a[0], true, true)
			a, b = a[1:], b[1:]
		}
	}
}
