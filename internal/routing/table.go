package routing

import (
	"sort"
	"sync/atomic"
)

// Entry is one routing-table row, mirroring the hardware layout of Figure
// 6(b): the neighbor's node number (log2 N bits), a hop-count bit ('0'
// one-hop, '1' two-hop), and — implicitly through the Coordinates view —
// the per-space virtual coordinates. Two-hop entries additionally record
// Via, the one-hop neighbor through which the two-hop neighbor is reached,
// which the forwarding pipeline needs to turn a lookahead win into an
// output port. The figure's blocking and valid bits are not modelled:
// reconfiguration applies atomically between simulation slices and swaps
// in rebuilt tables, so no packet ever reads a half-edited table.
type Entry struct {
	Node   int
	Via    int // -1 for one-hop entries
	TwoHop bool
}

// Table is the routing table of one router. Entries are bounded by p(p+1)
// per Section IV; the topology-driven builders (BuildTable, BuildTables)
// are the only way to fill one, and a built table never changes:
// reconfiguration replaces the tables it affects. The entries are the whole
// table: at that size a scan finds an entry faster than an index.
type Table struct {
	Node    int
	entries []Entry
	// view is the compact read-side copy of the entries the column kernel
	// scans (see Greediest.FirstHopColumn), built on first use. Simulators
	// running concurrently over one table may each build it, and racing
	// stores publish equal values.
	view atomic.Pointer[tableView]
}

// tableView lists a table's entries as int32 node numbers: the one-hop
// neighbors in entry order, and the two-hop neighbors reached through
// one[i] in two[ends[i-1]:ends[i]] (ends[-1] = 0).
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

// viewSize counts the int32s buildView carves for t: a node per entry,
// plus a group end per one-hop one.
func (t *Table) viewSize() int {
	n := len(t.entries)
	for i := range t.entries {
		if !t.entries[i].TwoHop {
			n++
		}
	}
	return n
}

// buildView fills v from t's entries, carving its slices from buf, and
// returns what is left of buf.
func (t *Table) buildView(v *tableView, buf []int32) []int32 {
	one := buf[:0]
	for i := range t.entries {
		if e := &t.entries[i]; !e.TwoHop {
			one = append(one, int32(e.Node))
		}
	}
	v.one, buf = one[:len(one):len(one)], buf[len(one):]
	v.ends, buf = buf[:len(one):len(one)], buf[len(one):]
	two := buf[:0]
	for i, w := range v.one {
		for j := range t.entries {
			if e := &t.entries[j]; e.TwoHop && int32(e.Via) == w {
				two = append(two, int32(e.Node))
			}
		}
		v.ends[i] = int32(len(two))
	}
	v.two, buf = two[:len(two):len(two)], buf[len(two):]
	return buf
}

// add appends an entry; one-hop entries use via = -1.
func (t *Table) add(node, via int, twoHop bool) {
	t.entries = append(t.entries, Entry{Node: node, Via: via, TwoHop: twoHop})
}

// Len returns the number of entries.
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

// visitOneHop calls fn for every one-hop entry.
func (t *Table) visitOneHop(fn func(node int)) {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.TwoHop {
			fn(e.Node)
		}
	}
}

// visitTwoHop calls fn for every two-hop entry.
func (t *Table) visitTwoHop(fn func(node, via int)) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.TwoHop {
			fn(e.Node, e.Via)
		}
	}
}

// HasOneHop reports whether node is a one-hop neighbor.
func (t *Table) HasOneHop(node int) bool {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.TwoHop && e.Node == node {
			return true
		}
	}
	return false
}
