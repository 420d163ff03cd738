package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Algorithm is the interface every routing scheme exposes to the network
// simulator: given the current router and the destination router, return the
// candidate next hops in preference order. The first candidate is the
// deterministic (oblivious) choice; the rest enable adaptive selection. An
// empty slice means the packet is unroutable from cur: it is at dst, or no
// neighbor of cur makes progress toward dst.
type Algorithm interface {
	Name() string
	Candidates(cur, dst int) []int
}

// Greediest implements the paper's compute+table hybrid routing protocol:
// each router stores only its one- and two-hop neighbors (Table) and picks
// the neighbor minimizing the minimum circular distance (MD) to the
// destination, with strict-decrease enforcement for loop freedom and two-hop
// lookahead for shorter paths.
type Greediest struct {
	Coords    *Coordinates
	Metric    Metric
	Tables    []*Table
	Lookahead bool // score candidates by best two-hop MD (paper default: on)
}

// NewGreediest builds the greediest router for a String Figure (or S2)
// topology at full scale: tables are populated with every active out-link
// (rings + extras) as one-hop entries, and the out-links of each one-hop
// neighbor as two-hop entries. bits selects coordinate quantization
// (0 = exact).
func NewGreediest(sf *topology.StringFigure, bits int) *Greediest {
	return NewGreediestOver(sf, bits, sf.OutNeighbors())
}

// NewGreediestOver builds the greediest router with tables for the given
// active out-adjacency — the reconfiguration engine's entry point, whose
// adjacency follows the alive mask rather than the full-scale design.
func NewGreediestOver(sf *topology.StringFigure, bits int, out [][]int) *Greediest {
	return &Greediest{
		Coords:    NewCoordinates(sf.Coord, bits),
		Metric:    MetricFor(sf.Cfg.Bidirectional),
		Tables:    BuildTables(sf.Cfg.N, out),
		Lookahead: true,
	}
}

// BuildTables constructs per-node routing tables from an out-neighbor
// adjacency (see BuildTable). Every table's entries are carved from one
// arena.
func BuildTables(n int, out [][]int) []*Table {
	size := 0
	for v := 0; v < n; v++ {
		size += tableSize(v, out)
	}
	arena := make([]Entry, 0, size)
	structs := make([]Table, n)
	tables := make([]*Table, n)
	for v := range tables {
		t := &structs[v]
		t.Node = v
		t.entries = arena[len(arena):]
		t.fill(out)
		arena = arena[:len(arena)+len(t.entries)]
		tables[v] = t
	}
	return tables
}

// BuildTable constructs node v's routing table from an out-neighbor
// adjacency: one-hop entries for every out-neighbor, two-hop entries for
// each neighbor's out-neighbors (excluding the node itself).
func BuildTable(v int, out [][]int) *Table {
	t := &Table{Node: v, entries: make([]Entry, 0, tableSize(v, out))}
	t.fill(out)
	return t
}

// tableSize counts the entries BuildTable adds for node v.
func tableSize(v int, out [][]int) int {
	size := len(out[v])
	for _, w := range out[v] {
		for _, x := range out[w] {
			if x != v && x != w {
				size++
			}
		}
	}
	return size
}

// fill adds t's one-hop entries, then its two-hop entries, in adjacency
// order. Every out list holds distinct targets, so every (node, via) pair
// is added once.
func (t *Table) fill(out [][]int) {
	v := t.Node
	for _, w := range out[v] {
		t.add(w, -1, false)
	}
	for _, w := range out[v] {
		for _, x := range out[w] {
			if x != v && x != w {
				t.add(x, w, true)
			}
		}
	}
}

// Name implements Algorithm.
func (g *Greediest) Name() string {
	if g.Lookahead {
		return "greediest+2hop"
	}
	return "greediest"
}

// Candidates returns the one-hop neighbors of cur that strictly reduce MD to
// dst, ordered by (two-hop lookahead score, own MD). Strict reduction at
// every hop is the progressive property of Appendix A, so any choice from
// the returned set yields a loop-free route.
func (g *Greediest) Candidates(cur, dst int) []int {
	if cur == dst {
		return nil
	}
	t := g.Tables[cur]
	// Destination one hop away: always forward directly.
	if t.HasOneHop(dst) {
		return []int{dst}
	}
	curMD := g.Coords.MD(g.Metric, cur, dst)

	type cand struct {
		node  int
		md    float64
		score float64
	}
	var cands []cand
	t.visitOneHop(func(w int) {
		md := g.Coords.MD(g.Metric, w, dst)
		if md < curMD {
			cands = append(cands, cand{node: w, md: md, score: md})
		}
	})
	if len(cands) == 0 {
		return nil
	}
	if g.Lookahead {
		// Improve each candidate's score with the best MD among the
		// two-hop neighbors reached through it (Figure 6: the router
		// stores two-hop coordinates precisely to enable this).
		pos := make(map[int]int, len(cands))
		for i, c := range cands {
			pos[c.node] = i
		}
		t.visitTwoHop(func(x, via int) {
			i, ok := pos[via]
			if !ok {
				return
			}
			if x == dst {
				cands[i].score = -1 // destination two hops away: best possible
				return
			}
			if md := g.Coords.MD(g.Metric, x, dst); md < cands[i].score {
				cands[i].score = md
			}
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].md != cands[j].md {
			return cands[i].md < cands[j].md
		}
		return cands[i].node < cands[j].node
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// Route walks greedy forwarding from src to dst and returns the node path
// including both endpoints. It errors if a router has no strictly improving
// neighbor (cannot happen between alive routers of an intact or ring-healed
// topology) or if the hop count exceeds the node count (which would
// indicate a loop and is asserted against in tests).
func (g *Greediest) Route(src, dst int) ([]int, error) {
	path := []int{src}
	cur := src
	limit := len(g.Tables) + 1
	for cur != dst {
		if len(path) > limit {
			return path, fmt.Errorf("routing: path from %d to %d exceeded %d hops", src, dst, limit)
		}
		cands := g.Candidates(cur, dst)
		if len(cands) == 0 {
			return path, fmt.Errorf("routing: no improving neighbor at %d toward %d", cur, dst)
		}
		cur = cands[0]
		path = append(path, cur)
	}
	return path, nil
}

// MD exposes the router's metric distance for diagnostics and tests.
func (g *Greediest) MD(u, v int) float64 { return g.Coords.MD(g.Metric, u, v) }

// VirtualChannel returns the deadlock-avoidance virtual channel for a packet
// travelling from src to dst (Section IV): VC0 when routing from a lower
// Space-0 coordinate to a higher one, VC1 otherwise.
func (g *Greediest) VirtualChannel(src, dst int) int {
	if g.Coords.At(0, src) <= g.Coords.At(0, dst) {
		return 0
	}
	return 1
}

// ZeroLoadPathLength returns the hop count of the deterministic greedy route
// and whether routing succeeded.
func (g *Greediest) ZeroLoadPathLength(src, dst int) (int, bool) {
	path, err := g.Route(src, dst)
	if err != nil {
		return 0, false
	}
	return len(path) - 1, true
}
