package topology

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Mesh is the distributed mesh (DM) baseline of Kim et al., and with a
// channel-width multiplier > 1 the optimized distributed mesh (ODM) that the
// paper widens to match String Figure's bisection bandwidth at each scale.
// Nodes are laid out row-major on a Rows x Cols grid; the final row may be
// partial so that any N is supported.
type Mesh struct {
	N          int
	Rows, Cols int
	// Width is the per-link channel multiplier (1 for DM; >1 for ODM).
	Width int
}

// NewMesh builds a DM topology with near-square dimensions for N nodes.
func NewMesh(n int) (*Mesh, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: mesh needs N >= 2, got %d", n)
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	return &Mesh{N: n, Rows: rows, Cols: cols, Width: 1}, nil
}

// NewODM builds an optimized distributed mesh whose links are `width`
// channels wide. The experiment harness chooses width so the mesh's
// bisection bandwidth matches String Figure's at the same N (Section V).
func NewODM(n, width int) (*Mesh, error) {
	m, err := NewMesh(n)
	if err != nil {
		return nil, err
	}
	if width < 1 {
		return nil, fmt.Errorf("topology: ODM width must be >= 1, got %d", width)
	}
	m.Width = width
	return m, nil
}

// Loc returns the grid coordinates of node v.
func (m *Mesh) Loc(v int) (row, col int) { return v / m.Cols, v % m.Cols }

// NodeAt returns the node at (row, col), or -1 when the cell is beyond N
// (partial last row) or outside the grid.
func (m *Mesh) NodeAt(row, col int) int {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		return -1
	}
	v := row*m.Cols + col
	if v >= m.N {
		return -1
	}
	return v
}

// Graph returns the bidirectional mesh link graph: one edge per link and
// direction, with the ODM width as its capacity, so that max-flow sees the
// widened channels and a search scans each link once.
func (m *Mesh) Graph() *graph.Graph {
	deg := make([]int, m.N)
	m.eachLink(func(v, w int) { deg[v]++; deg[w]++ })
	g := graph.NewSized(deg)
	width := float64(m.Width)
	m.eachLink(func(v, w int) {
		g.AddEdgeCap(v, w, width)
		g.AddEdgeCap(w, v, width)
	})
	return g
}

// eachLink calls fn(v, w) once for every mesh link, its lower-indexed end
// first: each node's link to the right, then its link down.
func (m *Mesh) eachLink(fn func(v, w int)) {
	for v := 0; v < m.N; v++ {
		r, c := m.Loc(v)
		if w := m.NodeAt(r, c+1); w >= 0 {
			fn(v, w)
		}
		if w := m.NodeAt(r+1, c); w >= 0 {
			fn(v, w)
		}
	}
}

// Ports returns the number of router ports per node (4 for an interior mesh
// node, scaled by the ODM width multiplier).
func (m *Mesh) Ports() int { return 4 * m.Width }

// XYNextHops returns the minimal next hops from cur toward dst under
// dimension-order (X then Y) routing, plus the adaptive alternative: when
// both a column and a row move reduce distance, both are returned (first one
// is the deterministic XY choice, the second enables adaptive selection).
func (m *Mesh) XYNextHops(cur, dst int) []int {
	return m.AppendXYNextHops(nil, cur, dst)
}

// AppendXYNextHops is the allocation-free form of XYNextHops: next hops are
// appended to buf (which may be reused across calls) and the extended slice
// is returned. Hop order is identical to XYNextHops.
func (m *Mesh) AppendXYNextHops(buf []int, cur, dst int) []int {
	if cur == dst {
		return buf
	}
	cr, cc := m.Loc(cur)
	dr, dc := m.Loc(dst)
	base := len(buf)
	hops := buf
	if dc != cc {
		step := 1
		if dc < cc {
			step = -1
		}
		if v := m.NodeAt(cr, cc+step); v >= 0 {
			hops = append(hops, v)
		}
	}
	if dr != cr {
		step := 1
		if dr < cr {
			step = -1
		}
		if v := m.NodeAt(cr+step, cc); v >= 0 {
			hops = append(hops, v)
		}
	}
	if len(hops) == base {
		// The destination cell is only reachable by first detouring
		// (possible around the ragged last row): move toward it anyway.
		if dr > cr {
			if v := m.NodeAt(cr+1, cc); v >= 0 {
				hops = append(hops, v)
			}
		}
		if len(hops) == base && cc > 0 {
			hops = append(hops, m.NodeAt(cr, cc-1))
		}
	}
	return hops
}
