package trace

import (
	"math"
	"math/rand"
)

// zipfHead is the most values a zipf sampler's head table covers.
const zipfHead = 16

// zipfMargin is how far inside its exact bounds each head interval is cut,
// in draw values: about 10⁷ ulps near 1, where the computed x of a draw
// errs by a few ulps of v+x (see zipf).
const zipfMargin = 1e-9

// zipf draws exactly math/rand.Zipf's values from exactly its draws. The
// constants and the rejection-inversion loop are copied verbatim from
// math/rand (same expressions, same operand order), and a head table
// answers the likely values without the loop's Log and Exp.
//
// The loop maps a draw r in [0, 1) to x = hinv(hxm + r*hx0minusHxm), which
// falls as r rises, and returns k = floor(x+0.5) at once when k-x <= s. So
// the draws the first attempt turns into k form one interval: those whose
// x lies in [max(k-0.5, k-s), k+0.5). head[k] holds that interval's draw
// bounds, computed from the same h, each moved zipfMargin inward. A draw
// inside head[k] has an exact x at least zipfMargin·|dx/dr| inside the
// x interval, with |dx/dr| = |hx0minusHxm|·(v+x)^q. For the workloads'
// exponents (v = 1, x >= -0.5) that is above 0.2, so the margin is over
// 10⁻¹⁰ in x, while the computed x errs by a few ulps of v+x, under 10⁻¹³
// for x < 16. The loop would therefore return k on its first attempt, and
// the table returns k from the same single draw; newZipf also checks the
// first attempt at both cut bounds and ends the table at the first k that
// fails. Every other draw, between intervals or below the last one, runs
// the verbatim loop from that draw on, so the values and the draws
// consumed are math/rand's.
type zipf struct {
	r            *rand.Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	// head[k] is the draw interval [lo, hi] the first attempt turns into k,
	// for k < n; intervals fall as k rises.
	head [zipfHead]struct{ lo, hi float64 }
	n    int
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipf is math/rand.NewZipf plus the head table. It returns nil when s
// <= 1 or v < 1, as NewZipf does.
func newZipf(r *rand.Rand, s float64, v float64, imax uint64) *zipf {
	z := new(zipf)
	if s <= 1.0 || v < 1 {
		return nil
	}
	z.r = r
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	// The head ends at the first k past imax, or whose cut interval is
	// empty or fails the first-attempt test at either bound.
	for k := 0; k < zipfHead && float64(k) <= z.imax; k++ {
		fk := float64(k)
		lo := (z.h(fk+0.5)-z.hxm)/z.hx0minusHxm + zipfMargin
		hi := (z.h(max(fk-0.5, fk-z.s))-z.hxm)/z.hx0minusHxm - zipfMargin
		if lo > hi || !z.first(lo, fk) || !z.first(min(hi, math.Nextafter(1, 0)), fk) {
			break
		}
		z.head[k].lo, z.head[k].hi = lo, hi
		z.n = k + 1
	}
	return z
}

// first reports whether the loop's first attempt turns draw r into k.
func (z *zipf) first(r, k float64) bool {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	return math.Floor(x+0.5) == k && k-x <= z.s
}

// Uint64 returns a value drawn from the distribution, as math/rand's
// Zipf.Uint64 would.
func (z *zipf) Uint64() uint64 {
	r := z.r.Float64() // r on [0,1]
	for k := range z.n {
		if r >= z.head[k].lo {
			if r <= z.head[k].hi {
				return uint64(k)
			}
			break
		}
	}
	return z.loop(r)
}

// loop is math/rand's Zipf.Uint64 loop entered with its first draw r.
func (z *zipf) loop(r float64) uint64 {
	k := 0.0

	for {
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
		r = z.r.Float64()
	}
	return uint64(k)
}
