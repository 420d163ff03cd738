package topology

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Butterfly is a concentrated 2D flattened butterfly (FB): routers form a
// Side x Side grid with full connectivity inside every row and every column,
// and each router concentrates Conc memory nodes. With Partitioned set it
// becomes the adapted flattened butterfly (AFB): every row and column is
// split into two segments with full intra-segment connectivity plus one
// bridge link per router to its mirror router in the other segment, cutting
// the port count roughly in half while keeping the diameter low.
type Butterfly struct {
	N           int // memory nodes
	Side        int // routers per dimension
	Conc        int // memory nodes per router (concentration)
	Partitioned bool
}

// NewFlattenedButterfly builds an FB sized for n memory nodes. Side and conc
// follow the paper's configurations (Figure 8) via FBParams.
func NewFlattenedButterfly(n int) (*Butterfly, error) {
	side, conc := FBParams(n)
	return newButterfly(n, side, conc, false)
}

// NewAdaptedFlattenedButterfly builds the partitioned AFB variant.
func NewAdaptedFlattenedButterfly(n int) (*Butterfly, error) {
	side, conc := FBParams(n)
	return newButterfly(n, side, conc, true)
}

func newButterfly(n, side, conc int, partitioned bool) (*Butterfly, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: butterfly needs N >= 2, got %d", n)
	}
	if side < 2 || conc < 1 || side*side*conc < n {
		return nil, fmt.Errorf("topology: butterfly %dx%d conc %d cannot host %d nodes", side, side, conc, n)
	}
	return &Butterfly{N: n, Side: side, Conc: conc, Partitioned: partitioned}, nil
}

// FBParams returns the router-grid side and concentration used at each
// network scale, matching the port counts the paper reports in Figure 8
// (FB: 20/24/31/33 for growing N; AFB halves them).
func FBParams(n int) (side, conc int) {
	switch {
	case n <= 128:
		return 11, 2 // 2*(11-1) = 20 ports
	case n <= 256:
		return 13, 2 // 24 ports
	case n <= 512:
		return 16, 2 // 30 ports (paper: 31)
	case n <= 1024:
		return 17, 4 // 32 ports (paper: 33)
	default:
		side = 17
		conc = int(math.Ceil(float64(n) / float64(side*side)))
		return side, conc
	}
}

// Routers returns the number of routers in the grid.
func (b *Butterfly) Routers() int { return b.Side * b.Side }

// NodeRouter maps memory node v to its hosting router (round-robin fill).
func (b *Butterfly) NodeRouter(v int) int { return v % b.Routers() }

// RouterLoc returns grid coordinates of a router.
func (b *Butterfly) RouterLoc(r int) (row, col int) { return r / b.Side, r % b.Side }

// routerAt returns the router index at (row, col).
func (b *Butterfly) routerAt(row, col int) int { return row*b.Side + col }

// sameSegment reports whether columns (or rows) a and b fall in the same
// half-segment of a partitioned dimension.
func (b *Butterfly) sameSegment(a, c int) bool {
	half := (b.Side + 1) / 2
	return (a < half) == (c < half)
}

// mirror returns the partner index of i in the other segment.
func (b *Butterfly) mirror(i int) int {
	half := (b.Side + 1) / 2
	if i < half {
		m := i + half
		if m >= b.Side {
			m = b.Side - 1
		}
		return m
	}
	return i - half
}

// connected reports whether routers at positions i and j within one
// dimension are directly linked.
func (b *Butterfly) connected(i, j int) bool {
	if i == j {
		return false
	}
	if !b.Partitioned {
		return true // FB: full intra-dimension connectivity
	}
	if b.sameSegment(i, j) {
		return true // AFB: full connectivity inside a segment
	}
	return b.mirror(i) == j // plus one bridge per router
}

// Graph returns the bidirectional router-level link graph.
func (b *Butterfly) Graph() *graph.Graph {
	deg := make([]int, b.Routers())
	b.eachLink(func(r, s int) { deg[r]++; deg[s]++ })
	g := graph.NewSized(deg)
	b.eachLink(g.AddBiEdge)
	return g
}

// eachLink calls fn(r, s) once for every router link, r < s: each router's
// row links, then its column links, toward higher indices.
func (b *Butterfly) eachLink(fn func(r, s int)) {
	for r := 0; r < b.Routers(); r++ {
		row, col := b.RouterLoc(r)
		// Row links (vary the column).
		for c2 := col + 1; c2 < b.Side; c2++ {
			if b.connected(col, c2) {
				fn(r, b.routerAt(row, c2))
			}
		}
		// Column links (vary the row).
		for r2 := row + 1; r2 < b.Side; r2++ {
			if b.connected(row, r2) {
				fn(r, b.routerAt(r2, col))
			}
		}
	}
}

// Ports returns the number of network ports per router.
func (b *Butterfly) Ports() int {
	return b.Graph().MaxOutDegree()
}

// MinimalNextHops returns the minimal-routing candidate next routers from
// cur toward dst: correct the column dimension and the row dimension, with
// both returned when both need correction (adaptive choice). In the AFB a
// dimension move that crosses segments may need the bridge first.
func (b *Butterfly) MinimalNextHops(cur, dst int) []int {
	return b.AppendMinimalNextHops(nil, cur, dst)
}

// AppendMinimalNextHops is the allocation-free form of MinimalNextHops:
// candidates are appended to buf (which may be reused across calls) and the
// extended slice is returned. Hop order is identical to MinimalNextHops.
func (b *Butterfly) AppendMinimalNextHops(buf []int, cur, dst int) []int {
	if cur == dst {
		return buf
	}
	cr, cc := b.RouterLoc(cur)
	dr, dc := b.RouterLoc(dst)
	hops := buf
	add := func(row, col int) {
		r := b.routerAt(row, col)
		if r != cur {
			hops = append(hops, r)
		}
	}
	if dc != cc {
		if b.connected(cc, dc) {
			add(cr, dc)
		} else {
			add(cr, b.mirror(cc)) // take the bridge toward the other segment
		}
	}
	if dr != cr {
		if b.connected(cr, dr) {
			add(dr, cc)
		} else {
			add(b.mirror(cr), cc)
		}
	}
	return hops
}
