package routing

import "slices"

// Scratch holds the reusable buffers behind BufferedAlgorithm. The network
// simulator keeps one Scratch per simulator instance so that steady-state
// routing performs zero heap allocations; algorithms shared across
// concurrent simulations stay safe because all mutable per-call state lives
// here, owned by the caller, never in the Algorithm itself.
type Scratch struct {
	cands []scratchCand
	out   []int
	// The column kernel's buffers (see Greediest.FirstHopColumn).
	md    []float64
	col   []int32
	views []*tableView
	// MDEvals counts the MD evaluations Greediest.CandidatesInto and
	// Greediest.FirstHopColumn made through this Scratch: the cost of the
	// routing decisions its owner could not take from a cache.
	MDEvals int64
}

type scratchCand struct {
	node  int
	md    float64
	score float64
}

// BufferedAlgorithm is the allocation-free face of Algorithm: CandidatesInto
// computes the same candidate list as Candidates, in the same order, but
// into buffers owned by sc. The returned slice is valid only until the next
// CandidatesInto call with the same Scratch, and must not be modified by the
// caller (table-driven algorithms may return their precomputed rows
// directly). Every algorithm in this package implements it. The mesh,
// butterfly and table routers derive both lists from one source; Greediest
// does not: its Candidates is a separate allocating implementation (a map
// and sort.Slice) that the reference core routes by, so the
// TestFirstHopColumn tests hold Candidates, CandidatesInto and
// FirstHopColumn equal on every pair they build.
type BufferedAlgorithm interface {
	Algorithm
	CandidatesInto(sc *Scratch, cur, dst int) []int
}

// CandidatesInto implements BufferedAlgorithm. It mirrors Candidates exactly:
// strictly improving one-hop neighbors ordered by (two-hop lookahead score,
// own MD, node). The comparator is a total order — node numbers are unique
// within the candidate set — so the sort is deterministic regardless of the
// sorting algorithm.
func (g *Greediest) CandidatesInto(sc *Scratch, cur, dst int) []int {
	if cur == dst {
		return nil
	}
	t := g.Tables[cur]
	// Destination one hop away: always forward directly.
	if t.HasOneHop(dst) {
		sc.out = append(sc.out[:0], dst)
		return sc.out
	}
	curMD := g.Coords.MD(g.Metric, cur, dst)
	sc.MDEvals++

	cands := sc.cands[:0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.TwoHop {
			continue
		}
		md := g.Coords.MD(g.Metric, e.Node, dst)
		sc.MDEvals++
		if md < curMD {
			cands = append(cands, scratchCand{node: e.Node, md: md, score: md})
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		return nil
	}
	if g.Lookahead {
		// Improve each candidate's score with the best MD among the
		// two-hop neighbors reached through it. The candidate set is
		// small (bounded by the port count), so a linear via lookup
		// beats building a map.
		for i := range t.entries {
			e := &t.entries[i]
			if !e.TwoHop {
				continue
			}
			ci := -1
			for j := range cands {
				if cands[j].node == e.Via {
					ci = j
					break
				}
			}
			if ci < 0 {
				continue
			}
			if e.Node == dst {
				cands[ci].score = -1 // destination two hops away: best possible
				continue
			}
			sc.MDEvals++
			if md := g.Coords.MD(g.Metric, e.Node, dst); md < cands[ci].score {
				cands[ci].score = md
			}
		}
	}
	slices.SortFunc(cands, func(a, b scratchCand) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		case a.md < b.md:
			return -1
		case a.md > b.md:
			return 1
		case a.node < b.node:
			return -1
		case a.node > b.node:
			return 1
		}
		return 0
	})
	out := sc.out[:0]
	for i := range cands {
		out = append(out, cands[i].node)
	}
	sc.out = out
	return out
}

// FirstHopColumn resolves every router's deterministic first hop toward
// dst at once: col[cur] is CandidatesInto(sc, cur, dst)[0], or -1 where that
// list is empty (cur == dst included). Greediest routing reads dst only
// through MD(·, dst), so a column costs one MD per node plus table-view
// loads, where N separate CandidatesInto calls evaluate ~37 MDs each.
//
// Setting md[dst] = -1 gives both of CandidatesInto's destination rules with
// no branch: a one-hop dst strictly improves and is the unique minimum of
// (score, md), and a dst two hops away scores its via -1. The argmin of
// (lookahead score, own MD, node) over the strictly improving one-hop
// neighbors is the head of CandidatesInto's sorted list, so no sort runs.
// The result is valid until the next call with the same Scratch.
func (g *Greediest) FirstHopColumn(sc *Scratch, dst int) []int32 {
	n := len(g.Tables)
	md := slices.Grow(sc.md[:0], n)[:n]
	for x := range md {
		md[x] = g.Coords.MD(g.Metric, x, dst)
	}
	sc.MDEvals += int64(n)
	md[dst] = -1
	col := slices.Grow(sc.col[:0], n)[:n]
	for cur, v := range g.loadViews(sc) {
		best, bestScore, bestMD := int32(-1), 0.0, 0.0
		curMD := md[cur]
		for i, w := range v.one {
			wMD := md[w]
			if !(wMD < curMD) {
				continue
			}
			score := wMD
			if g.Lookahead {
				for _, x := range v.group(i) {
					score = min(score, md[x])
				}
			}
			if best < 0 || score < bestScore ||
				score == bestScore && (wMD < bestMD || wMD == bestMD && w < best) {
				best, bestScore, bestMD = w, score, wMD
			}
		}
		col[cur] = best
	}
	sc.md, sc.col = md, col
	return col
}

// loadViews returns every table's compact view, building the missing ones
// into one slab: the first column of a table epoch pays two allocations, not
// two per table.
func (g *Greediest) loadViews(sc *Scratch) []*tableView {
	views := slices.Grow(sc.views[:0], len(g.Tables))[:len(g.Tables)]
	missing, size := 0, 0
	for i, t := range g.Tables {
		if views[i] = t.view.Load(); views[i] == nil {
			missing++
			size += t.viewSize()
		}
	}
	if missing > 0 {
		slab, buf := make([]tableView, missing), make([]int32, size)
		for i, t := range g.Tables {
			if views[i] == nil {
				views[i], slab = &slab[0], slab[1:]
				buf = t.buildView(views[i], buf)
				t.view.Store(views[i])
			}
		}
	}
	sc.views = views
	return views
}

// CandidatesInto implements BufferedAlgorithm.
func (m *MeshRouter) CandidatesInto(sc *Scratch, cur, dst int) []int {
	sc.out = m.Mesh.AppendXYNextHops(sc.out[:0], cur, dst)
	return sc.out
}

// CandidatesInto implements BufferedAlgorithm.
func (b *ButterflyRouter) CandidatesInto(sc *Scratch, cur, dst int) []int {
	sc.out = b.B.AppendMinimalNextHops(sc.out[:0], cur, dst)
	return sc.out
}

// CandidatesInto implements BufferedAlgorithm. The precomputed row is
// returned directly; per the interface contract the caller must not modify
// it.
func (t *TableRouter) CandidatesInto(sc *Scratch, cur, dst int) []int {
	if cur == dst {
		return nil
	}
	return t.next[cur][dst]
}
