package routing

import (
	"math"

	"repro/internal/topology"
)

// Metric selects the distance function used by greediest routing.
type Metric int

const (
	// Symmetric uses D(u,v) = min{|u-v|, 1-|u-v|}, the paper's circular
	// distance. It requires bi-directional wires for the Lemma 1 progress
	// guarantee.
	Symmetric Metric = iota
	// Clockwise uses the clockwise arc length from u to v, the progress
	// metric for uni-directional builds: every clockwise ring hop strictly
	// reduces it, so delivery stays provable with one-way wires.
	Clockwise
)

// String names the distance metric for experiment output.
func (m Metric) String() string {
	if m == Clockwise {
		return "clockwise"
	}
	return "symmetric"
}

// MetricFor returns the provably loop-free metric for a topology build:
// Clockwise for uni-directional wires, Symmetric for bi-directional.
func MetricFor(bidirectional bool) Metric {
	if bidirectional {
		return Symmetric
	}
	return Clockwise
}

// Coordinates is a read-only view of per-space virtual coordinates, with
// optional fixed-point quantization emulating the 7-bit coordinate fields of
// the hardware routing table. Quantization is applied once, at construction:
// q holds the coordinates exactly as the router sees them, node-major, so
// the distance between two nodes reads two contiguous rows.
type Coordinates struct {
	spaces int
	q      []float64 // q[v*spaces+s]: node v's quantized coordinate in space s
}

// NewCoordinates snapshots a topology's coordinate arrays ([space][node]).
// bits selects the quantization width (0 = exact float coordinates; the
// paper's hardware stores 7 bits, which only disambiguates networks up to
// ~128 nodes — TestQuantizationCollapsesLargeNetwork pins the collapse).
func NewCoordinates(coord [][]float64, bits int) *Coordinates {
	c := &Coordinates{spaces: len(coord)}
	if c.spaces == 0 {
		return c
	}
	scale := 0.0
	if bits > 0 {
		scale = math.Pow(2, float64(bits))
	}
	n := len(coord[0])
	c.q = make([]float64, n*c.spaces)
	for s, row := range coord {
		for v, x := range row {
			if scale > 0 {
				x = math.Floor(x*scale) / scale
			}
			c.q[v*c.spaces+s] = x
		}
	}
	return c
}

// Spaces returns the number of virtual spaces.
func (c *Coordinates) Spaces() int { return c.spaces }

// At returns node v's (possibly quantized) coordinate in space s.
func (c *Coordinates) At(s, v int) float64 { return c.q[v*c.spaces+s] }

// Distance returns the metric distance from u to v in space s.
func (c *Coordinates) Distance(m Metric, s, u, v int) float64 {
	cu, cv := c.At(s, u), c.At(s, v)
	if m == Clockwise {
		return topology.ClockwiseDistance(cu, cv)
	}
	return topology.CircularDistance(cu, cv)
}

// MD returns the minimum distance from u to v across all spaces — the MD
// function of Section III-B (or its clockwise analog).
//
// The symmetric loop is branch-free: min(md, d, 1-d) equals folding
// topology.CircularDistance into a running minimum bit for bit, because d is
// never NaN and neither d nor 1-d is ever -0 (coordinates lie in [0, 1)).
// A random pair's spaces give the old compare-and-branch form nothing to
// predict, so dropping it roughly halves a routing-table miss.
func (c *Coordinates) MD(m Metric, u, v int) float64 {
	ru := c.q[u*c.spaces : (u+1)*c.spaces]
	rv := c.q[v*c.spaces : (v+1)*c.spaces]
	rv = rv[:len(ru)]
	md := math.Inf(1)
	if m == Clockwise {
		for s, cu := range ru {
			if d := topology.ClockwiseDistance(cu, rv[s]); d < md {
				md = d
			}
		}
		return md
	}
	for s, cu := range ru {
		d := math.Abs(cu - rv[s])
		md = min(md, d, 1-d)
	}
	return md
}
