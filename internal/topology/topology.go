package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// LinkType classifies a physical wire of the String Figure design.
type LinkType int

const (
	// RingLink connects circularly adjacent nodes of one virtual space.
	RingLink LinkType = iota
	// ExtraLink pairs two nodes with free ports left over after ring
	// construction (the longest-distance pairing step of Figure 4).
	ExtraLink
	// ShortcutLink is a pre-provisioned 2-hop or 4-hop clockwise wire in
	// Virtual Space-0, inactive at full scale and switched in by the
	// reconfiguration engine when ports free up (Figure 3(c)).
	ShortcutLink
)

// String names the link type for experiment output.
func (t LinkType) String() string {
	switch t {
	case RingLink:
		return "ring"
	case ExtraLink:
		return "extra"
	case ShortcutLink:
		return "shortcut"
	default:
		return fmt.Sprintf("LinkType(%d)", int(t))
	}
}

// Link is one physical wire. For uni-directional builds the wire carries
// packets From -> To only; for bi-directional builds both ways.
type Link struct {
	From, To int
	Space    int // virtual space of a ring link; -1 for extra links and shortcuts
	Type     LinkType
	Hops     int // for shortcuts: the Space-0 clockwise hop distance (2 or 4)
}

// Config parameterizes String Figure (and S2) topology generation.
type Config struct {
	// N is the number of memory nodes. Any N >= 2 is supported (the
	// "arbitrary network scale" goal).
	N int
	// Ports is the number of router ports p, excluding the terminal port.
	// The number of virtual spaces is floor(p/2).
	Ports int
	// Seed drives all randomness; equal seeds give identical topologies.
	Seed int64
	// Bidirectional selects full-duplex wires. The paper's final design
	// uses uni-directional wires (Section IV); bidirectional is the
	// ablation variant and is also what the Appendix A symmetric circular
	// distance proof assumes.
	Bidirectional bool
	// Shortcuts enables pre-provisioned shortcut wires. String Figure
	// enables them; the S2 baseline does not.
	Shortcuts bool
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("topology: N must be >= 2, got %d", c.N)
	}
	if c.Ports < 2 {
		return fmt.Errorf("topology: Ports must be >= 2, got %d", c.Ports)
	}
	if c.Ports/2 < 1 {
		return fmt.Errorf("topology: Ports/2 must be >= 1, got %d", c.Ports/2)
	}
	return nil
}

// StringFigure is the generated balanced random topology plus shortcut plan.
// All slices are indexed [space][...] or [node].
type StringFigure struct {
	Cfg    Config
	Spaces int // L = floor(Ports/2)

	// Coord[s][v] is node v's virtual coordinate in space s, in [0,1).
	Coord [][]float64
	// Order[s][k] is the node at clockwise rank k in space s.
	Order [][]int
	// Rank[s][v] is node v's clockwise rank in space s.
	Rank [][]int

	// Ring links, extra pairing links, and pre-provisioned shortcuts.
	Rings     []Link
	Extras    []Link
	Shortcuts []Link
}

// NewStringFigure generates a String Figure topology per Figure 4:
//  1. construct L = floor(p/2) virtual spaces,
//  2. distribute the nodes in each space in a balanced random order,
//  3. interconnect circularly neighboring nodes in each space,
//  4. pair up remaining free ports, preferring the longest-distance pairs,
//  5. plan shortcut wires to 2- and 4-hop Space-0 clockwise neighbors with
//     larger node numbers (at most two per node).
func NewStringFigure(cfg Config) (*StringFigure, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sf := &StringFigure{Cfg: cfg, Spaces: cfg.Ports / 2}
	sf.generateSpaces(rng)
	wired := newWireLists(cfg.N, cfg.Ports+2)
	sf.generateRings(wired)
	sf.generateExtras(wired)
	if cfg.Shortcuts {
		sf.generateShortcuts(wired)
	}
	return sf, nil
}

// wireLists records the wires generated so far as per-node lists of the
// nodes wired to: wired[u] holds v once a u->v wire exists (and, on
// bidirectional builds, u's list holds v and v's holds u). A node has at
// most p+2 wires, so a scan of its list beats hashing the pair.
type wireLists [][]int

// newWireLists carves n lists of capacity degree from one arena, each
// clipped so an overfull list reallocates instead of spilling into the next.
func newWireLists(n, degree int) wireLists {
	arena := make([]int, n*degree)
	w := make(wireLists, n)
	for v := range w {
		w[v] = arena[v*degree : v*degree : (v+1)*degree]
	}
	return w
}

// addWire records the wire u->v, and v->u too on a bidirectional build.
func (w wireLists) addWire(u, v int, bidirectional bool) {
	w[u] = append(w[u], v)
	if bidirectional {
		w[v] = append(w[v], u)
	}
}

// generateSpaces implements BalancedCoordinateGen: each space gets a uniform
// random permutation of the nodes (randomness) assigned to evenly spaced
// coordinate slots with bounded jitter (balance). Consecutive arc lengths are
// therefore within [0.5/N, 1.5/N], so no region of the ring is congested.
func (sf *StringFigure) generateSpaces(rng *rand.Rand) {
	n, L := sf.Cfg.N, sf.Spaces
	sf.Coord = make([][]float64, L)
	sf.Order = make([][]int, L)
	sf.Rank = make([][]int, L)
	for s := 0; s < L; s++ {
		order := rng.Perm(n)
		coord := make([]float64, n)
		rank := make([]int, n)
		for k, v := range order {
			// Slot k spans [k/N,(k+1)/N); place the node in the middle
			// half of its slot so arcs stay balanced but distances are
			// rarely exactly tied.
			jitter := 0.25 + 0.5*rng.Float64()
			coord[v] = (float64(k) + jitter) / float64(n)
			rank[v] = k
		}
		sf.Coord[s] = coord
		sf.Order[s] = order
		sf.Rank[s] = rank
	}
}

// generateRings wires each node to its clockwise successor in every space.
// A wire u->v serves as u's out-link and v's in-link; with bidirectional
// builds the same wire carries both directions. Duplicate successor pairs
// across spaces are wired once, leaving free ports for generateExtras.
func (sf *StringFigure) generateRings(wired wireLists) {
	n := sf.Cfg.N
	for s := 0; s < sf.Spaces; s++ {
		for k := 0; k < n; k++ {
			u := sf.Order[s][k]
			v := sf.Order[s][(k+1)%n]
			// A bidirectional wire is recorded in both orientations, so
			// this also finds an existing v->u wire there.
			if slices.Contains(wired[u], v) {
				continue // duplicate adjacency leaves a free port
			}
			wired.addWire(u, v, sf.Cfg.Bidirectional)
			sf.Rings = append(sf.Rings, Link{From: u, To: v, Space: s, Type: RingLink})
		}
	}
}

// freePortCount returns per-node counts of free out-ports and in-ports after
// ring construction.
//
// Uni-directional budgeting: each node has one out-port and one in-port per
// space; deduplicated wires refund ports at both endpoints.
//
// Bidirectional budgeting: each node has p = 2*Spaces duplex ports, one per
// ring adjacency (predecessor and successor in every space); a duplex wire
// consumes one port at each endpoint, so duplicate adjacencies across spaces
// free whole ports. Both counts coincide in the returned slices (outFree ==
// inFree) for bidirectional builds.
func (sf *StringFigure) freePortCount() (outFree, inFree []int) {
	n := sf.Cfg.N
	outFree = make([]int, n)
	inFree = make([]int, n)
	if sf.Cfg.Bidirectional {
		ports := make([]int, n)
		for v := 0; v < n; v++ {
			ports[v] = 2 * sf.Spaces
		}
		for _, l := range sf.Rings {
			ports[l.From]--
			ports[l.To]--
		}
		for v := 0; v < n; v++ {
			if ports[v] < 0 {
				ports[v] = 0
			}
			outFree[v] = ports[v]
			inFree[v] = ports[v]
		}
		return outFree, inFree
	}
	for v := 0; v < n; v++ {
		outFree[v] = sf.Spaces
		inFree[v] = sf.Spaces
	}
	for _, l := range sf.Rings {
		outFree[l.From]--
		inFree[l.To]--
	}
	for v := 0; v < n; v++ {
		if outFree[v] < 0 {
			outFree[v] = 0
		}
		if inFree[v] < 0 {
			inFree[v] = 0
		}
	}
	return outFree, inFree
}

// generateExtras pairs nodes that still have free ports, preferring pairs
// with the longest distance (largest minimum circular distance across
// spaces), per step 4 of the construction algorithm. For uni-directional
// builds a free out-port pairs with a free in-port; for bidirectional builds
// two free duplex ports pair. wired holds the ring wires and gains the
// extra ones.
func (sf *StringFigure) generateExtras(wired wireLists) {
	outFree, inFree := sf.freePortCount()
	var senders, receivers []int
	for v := 0; v < sf.Cfg.N; v++ {
		for i := 0; i < outFree[v]; i++ {
			senders = append(senders, v)
		}
		for i := 0; i < inFree[v]; i++ {
			receivers = append(receivers, v)
		}
	}
	// Greedy longest-distance matching: repeatedly pick the unlinked
	// (sender, receiver) pair with the largest MD.
	for len(senders) > 0 && len(receivers) > 0 {
		bestI, bestJ, bestD := -1, -1, -1.0
		for i, u := range senders {
			for j, v := range receivers {
				if u == v || slices.Contains(wired[u], v) {
					continue
				}
				if sf.Cfg.Bidirectional && bestI >= 0 && senders[bestI] == v && receivers[bestJ] == u {
					continue
				}
				d := sf.MinCircularDistance(u, v)
				if d > bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		if bestI < 0 {
			break // every remaining pair is already linked or self
		}
		u, v := senders[bestI], receivers[bestJ]
		sf.Extras = append(sf.Extras, Link{From: u, To: v, Space: -1, Type: ExtraLink})
		wired.addWire(u, v, sf.Cfg.Bidirectional)
		senders = append(senders[:bestI], senders[bestI+1:]...)
		if sf.Cfg.Bidirectional {
			// The duplex wire also consumes v's port from the sender pool
			// and u's port from the receiver pool.
			senders = removeOne(senders, v)
			receivers = removeOne(receivers, u)
		}
		receivers = removeOneAt(receivers, bestJ, v)
	}
}

// removeOne deletes one occurrence of x from xs (no-op when absent).
func removeOne(xs []int, x int) []int {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// removeOneAt deletes index i when still valid and pointing at x; after
// other removals the index may have shifted, in which case it falls back to
// removing one occurrence of x.
func removeOneAt(xs []int, i int, x int) []int {
	if i < len(xs) && xs[i] == x {
		return append(xs[:i], xs[i+1:]...)
	}
	return removeOne(xs, x)
}

// generateShortcuts plans the pre-provisioned shortcut wires: for every node,
// wires to its 2-hop and 4-hop clockwise neighbors in Virtual Space-0, but
// only toward nodes with a larger node number, bounding the added wires to
// at most two per node (Figure 3(c)). Wires that duplicate a basic-topology
// link (recorded in wired) are skipped.
func (sf *StringFigure) generateShortcuts(wired wireLists) {
	n := sf.Cfg.N
	for u := 0; u < n; u++ {
		r := sf.Rank[0][u]
		for _, hops := range []int{2, 4} {
			if hops >= n {
				continue
			}
			v := sf.Order[0][(r+hops)%n]
			if v <= u {
				continue // only connect to larger node numbers
			}
			if slices.Contains(wired[u], v) {
				continue // overlaps the basic random topology
			}
			wired[u] = append(wired[u], v)
			sf.Shortcuts = append(sf.Shortcuts, Link{From: u, To: v, Space: 0, Type: ShortcutLink, Hops: hops})
		}
	}
}

// CircularDistance returns the symmetric circular distance
// D(u,v) = min{|cu-cv|, 1-|cu-cv|} between two coordinates.
func CircularDistance(cu, cv float64) float64 {
	d := math.Abs(cu - cv)
	if 1-d < d {
		return 1 - d
	}
	return d
}

// ClockwiseDistance returns the clockwise arc length from coordinate cu to
// cv, the progress metric used with uni-directional wires.
func ClockwiseDistance(cu, cv float64) float64 {
	d := cv - cu
	if d < 0 {
		d += 1
	}
	return d
}

// MinCircularDistance returns MD(u,v) = min over spaces of D(coord_s(u),
// coord_s(v)) for the symmetric metric.
func (sf *StringFigure) MinCircularDistance(u, v int) float64 {
	md := math.Inf(1)
	for s := 0; s < sf.Spaces; s++ {
		d := CircularDistance(sf.Coord[s][u], sf.Coord[s][v])
		if d < md {
			md = d
		}
	}
	return md
}

// BaseLinks returns the active wires of the full-scale network: rings plus
// extra pairing links. Shortcuts are excluded (they are switched in only
// after down-scaling).
func (sf *StringFigure) BaseLinks() []Link {
	links := make([]Link, 0, len(sf.Rings)+len(sf.Extras))
	links = append(links, sf.Rings...)
	links = append(links, sf.Extras...)
	return links
}

// AllLinks returns every physical wire including inactive shortcuts.
func (sf *StringFigure) AllLinks() []Link {
	links := sf.BaseLinks()
	return append(links, sf.Shortcuts...)
}

// Graph builds the directed link graph of the full-scale network.
func (sf *StringFigure) Graph() *graph.Graph {
	g := graph.New(sf.Cfg.N)
	for _, l := range sf.BaseLinks() {
		g.AddEdge(l.From, l.To)
		if sf.Cfg.Bidirectional {
			g.AddEdge(l.To, l.From)
		}
	}
	return g
}

// OutNeighbors returns, for every node, the sorted distinct targets of its
// active out-links at full scale.
func (sf *StringFigure) OutNeighbors() [][]int {
	return OutLists(sf.Cfg.N, sf.Cfg.Bidirectional, sf.Rings, sf.Extras)
}

// OutLists returns, for every node, the sorted distinct targets of the
// given wires (both ends' on a bidirectional build), nil where there are
// none. The lists are carved from one arena, each clipped to its length.
func OutLists(n int, bidirectional bool, links ...[]Link) [][]int {
	deg := make([]int, n)
	total := 0
	for _, ls := range links {
		for _, l := range ls {
			deg[l.From]++
			if bidirectional {
				deg[l.To]++
			}
		}
		total += len(ls)
	}
	if bidirectional {
		total *= 2
	}
	arena := make([]int, 0, total)
	out := make([][]int, n)
	for v := range out {
		out[v] = arena[len(arena):len(arena)]
		arena = arena[:len(arena)+deg[v]]
	}
	for _, ls := range links {
		for _, l := range ls {
			out[l.From] = append(out[l.From], l.To)
			if bidirectional {
				out[l.To] = append(out[l.To], l.From)
			}
		}
	}
	for v, nbrs := range out {
		if len(nbrs) == 0 {
			out[v] = nil
			continue
		}
		slices.Sort(nbrs)
		out[v] = slices.Clip(slices.Compact(nbrs))
	}
	return out
}

// MaxConnectionsPerNode returns the largest number of out-going wires at any
// node, which Section IV bounds by p/2 + 2 for uni-directional builds.
func (sf *StringFigure) MaxConnectionsPerNode() int {
	count := make([]int, sf.Cfg.N)
	for _, l := range sf.AllLinks() {
		count[l.From]++
		if sf.Cfg.Bidirectional {
			count[l.To]++
		}
	}
	m := 0
	for _, c := range count {
		if c > m {
			m = c
		}
	}
	return m
}

// Successor returns the clockwise successor of node v in space s among the
// nodes for which alive is true (alive == nil means all alive). It returns
// -1 if no other alive node exists.
func (sf *StringFigure) Successor(s, v int, alive []bool) int {
	n := sf.Cfg.N
	r := sf.Rank[s][v]
	for step := 1; step < n; step++ {
		w := sf.Order[s][(r+step)%n]
		if alive == nil || alive[w] {
			return w
		}
	}
	return -1
}

// SortLinks orders links deterministically (by From, To, Space), for stable
// output in tools and tests.
func SortLinks(links []Link) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		if links[i].To != links[j].To {
			return links[i].To < links[j].To
		}
		return links[i].Space < links[j].Space
	})
}
