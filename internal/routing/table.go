package routing

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Entry is one routing-table row, mirroring the hardware layout of Figure
// 6(b): the neighbor's node number (log2 N bits), a blocking bit, a valid
// bit, a hop-count bit ('0' one-hop, '1' two-hop), and — implicitly through
// the Coordinates view — the per-space virtual coordinates. Two-hop entries
// additionally record Via, the one-hop neighbor through which the two-hop
// neighbor is reached, which the forwarding pipeline needs to turn a
// lookahead win into an output port.
type Entry struct {
	Node    int
	Via     int // -1 for one-hop entries
	TwoHop  bool
	Valid   bool
	Blocked bool
}

// Table is the routing table of one router. Entries are bounded by p(p+1)
// per Section IV; the table enforces the bound when built through the
// topology-driven builders and reconfiguration engine. The entries are the
// whole table: at that size a scan finds an entry faster than an index.
type Table struct {
	Node    int
	entries []Entry
	// view is the compact read-side copy of the usable entries the column
	// kernel scans (see Greediest.FirstHopColumn), built on first use. Every
	// mutator drops it; simulators running concurrently over unchanged
	// tables may each rebuild it, and racing stores publish equal values.
	view atomic.Pointer[tableView]
}

// tableView lists a table's usable entries as int32 node numbers: the
// distinct one-hop neighbors in entry order, and the two-hop neighbors
// reached through one[i] in two[ends[i-1]:ends[i]] (ends[-1] = 0). Two-hop
// entries whose via is not a usable one-hop neighbor are left out: greediest
// routing never reads them.
type tableView struct {
	one, ends, two []int32
}

// group returns the two-hop neighbors reached through one[i].
func (v *tableView) group(i int) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = v.ends[i-1]
	}
	return v.two[lo:v.ends[i]]
}

// NewTable creates an empty routing table for the given router.
func NewTable(node int) *Table {
	return &Table{Node: node}
}

// dropView forgets the compact view after a mutation. Mutations happen while
// no simulator reads the table, so the common case — a table being built,
// which never had a view — costs a load and no atomic write.
func (t *Table) dropView() {
	if t.view.Load() != nil {
		t.view.Store(nil)
	}
}

// viewSize bounds the int32s buildView carves for t: a node per usable
// entry, plus a group end per one-hop one.
func (t *Table) viewSize() int {
	n := 0
	for i := range t.entries {
		if e := &t.entries[i]; e.Valid && !e.Blocked {
			n++
			if !e.TwoHop {
				n++
			}
		}
	}
	return n
}

// buildView fills v from t's usable entries, carving its slices from buf,
// and returns what is left of buf.
func (t *Table) buildView(v *tableView, buf []int32) []int32 {
	one := buf[:0]
	for i := range t.entries {
		// A node listed twice as one-hop (possible after Promote) is one
		// candidate, scored through its first listing, as CandidatesInto does.
		if e := &t.entries[i]; !e.TwoHop && e.Valid && !e.Blocked && !slices.Contains(one, int32(e.Node)) {
			one = append(one, int32(e.Node))
		}
	}
	v.one, buf = one[:len(one):len(one)], buf[len(one):]
	v.ends, buf = buf[:len(one):len(one)], buf[len(one):]
	two := buf[:0]
	for i, w := range v.one {
		for j := range t.entries {
			if e := &t.entries[j]; e.TwoHop && e.Valid && !e.Blocked && int32(e.Via) == w {
				two = append(two, int32(e.Node))
			}
		}
		v.ends[i] = int32(len(two))
	}
	v.two, buf = two[:len(two):len(two)], buf[len(two):]
	return buf
}

// Add inserts an entry, or re-validates the first one with the same node
// and via. One-hop entries use via = -1.
func (t *Table) Add(node, via int, twoHop bool) {
	t.dropView()
	for i := range t.entries {
		if e := &t.entries[i]; e.Node == node && e.Via == via {
			e.Valid, e.Blocked, e.TwoHop = true, false, twoHop
			return
		}
	}
	t.entries = append(t.entries, Entry{Node: node, Via: via, TwoHop: twoHop, Valid: true})
}

// Len returns the number of entries (valid or not).
func (t *Table) Len() int { return len(t.entries) }

// Entries returns a copy of the entries, sorted for deterministic output.
func (t *Table) Entries() []Entry {
	out := append([]Entry(nil), t.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Via < out[j].Via
	})
	return out
}

// visitOneHop calls fn for every usable (valid, unblocked) one-hop entry.
func (t *Table) visitOneHop(fn func(node int)) {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.TwoHop && e.Valid && !e.Blocked {
			fn(e.Node)
		}
	}
}

// visitTwoHop calls fn for every usable two-hop entry.
func (t *Table) visitTwoHop(fn func(node, via int)) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.TwoHop && e.Valid && !e.Blocked {
			fn(e.Node, e.Via)
		}
	}
}

// setBlockedWhere sets the blocking bit on entries selected by match.
func (t *Table) setBlockedWhere(match func(Entry) bool, blocked bool) int {
	t.dropView()
	n := 0
	for i := range t.entries {
		if match(t.entries[i]) {
			t.entries[i].Blocked = blocked
			n++
		}
	}
	return n
}

// Block sets the blocking bit on every entry that refers to the given node,
// either as the neighbor itself or as the via of a two-hop entry. This is
// step 1 of the reconfiguration protocol (Section III-C).
func (t *Table) Block(node int) int {
	return t.setBlockedWhere(func(e Entry) bool { return e.Node == node || e.Via == node }, true)
}

// Unblock clears the blocking bit set by Block — step 4 of reconfiguration.
func (t *Table) Unblock(node int) int {
	return t.setBlockedWhere(func(e Entry) bool { return e.Node == node || e.Via == node }, false)
}

// Invalidate clears the valid bit on entries referring to node (as target or
// via) — used when a neighbor is power-gated off.
func (t *Table) Invalidate(node int) int {
	t.dropView()
	n := 0
	for i := range t.entries {
		if t.entries[i].Node == node || t.entries[i].Via == node {
			t.entries[i].Valid = false
			n++
		}
	}
	return n
}

// Promote flips a two-hop entry for node (via any path) into a one-hop
// entry — the "original two-hop neighbors are now one-hop neighbors" bit
// flip of Section III-C. It returns false if no entry for node exists, in
// which case the caller adds a fresh entry instead.
func (t *Table) Promote(node int) bool {
	t.dropView()
	for i := range t.entries {
		if e := &t.entries[i]; e.Node == node && e.TwoHop {
			e.TwoHop, e.Via, e.Valid = false, -1, true
			return true
		}
	}
	return false
}

// HasOneHop reports whether node is a usable one-hop neighbor.
func (t *Table) HasOneHop(node int) bool {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.TwoHop && e.Node == node && e.Valid && !e.Blocked {
			return true
		}
	}
	return false
}

// String renders the table in the layout of Figure 6(b).
func (t *Table) String() string {
	s := fmt.Sprintf("routing table of node %d (%d entries)\n", t.Node, len(t.entries))
	s += "node  via  hop#  valid  blocked\n"
	for _, e := range t.Entries() {
		hop := 0
		if e.TwoHop {
			hop = 1
		}
		s += fmt.Sprintf("%4d  %3d  %4d  %5v  %7v\n", e.Node, e.Via, hop, e.Valid, e.Blocked)
	}
	return s
}
