package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/memnode"
)

// scriptSource is a rand.Source that hands out its script's values first
// and then a seeded stream's, counting every value it hands out.
type scriptSource struct {
	script []int64
	rest   rand.Source
	drawn  int
}

func newScriptSource(seed int64, script ...int64) *scriptSource {
	return &scriptSource{script: script, rest: rand.NewSource(seed)}
}

func (s *scriptSource) Int63() int64 {
	s.drawn++
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// float64Draw is the Int63 value for which rand.Rand.Float64 returns f, for
// an f in [2⁻¹⁰, 1), where every float64 is a multiple of 2⁻⁶³.
func float64Draw(t *testing.T, f float64) int64 {
	t.Helper()
	v := int64(f * (1 << 63))
	if float64(v)/(1<<63) != f {
		t.Fatalf("draw value %v has no Int63 that yields it", f)
	}
	return v
}

// zipfCase is one (s, imax) a Zipf workload builds.
type zipfCase struct {
	name string
	s    float64
	imax uint64
}

// zipfCases reads the samplers the Zipf workloads build at the session
// scales, from the workloads themselves.
func zipfCases(t *testing.T) []zipfCase {
	t.Helper()
	var cases []zipfCase
	for _, n := range []int{16, 32, 64, 128, 256, 1024} {
		m := memnode.NewAddressMap(n)
		for _, name := range []string{"pagerank", "redis", "memcached"} {
			w, err := NewWorkload(name, m.CapacityBytes(), 1)
			if err != nil {
				t.Fatal(err)
			}
			w.Next(rand.New(rand.NewSource(1)))
			var z *zipf
			switch w := w.(type) {
			case *graphWalk:
				z = w.zipf
			case *keyValue:
				z = w.zipf
			}
			cases = append(cases, zipfCase{fmt.Sprintf("N%d/%s", n, name), z.q, uint64(z.imax)})
		}
	}
	return cases
}

// TestZipfMatchesMathRand draws a million values from each sampler the
// Zipf workloads build, and from math/rand's Zipf on an identically seeded
// generator: the values must agree one for one, and both must have
// consumed the same draws.
func TestZipfMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	for i, c := range zipfCases(t) {
		seed := int64(1000 + i)
		ours, theirs := newScriptSource(seed), newScriptSource(seed)
		z := newZipf(rand.New(ours), c.s, 1, c.imax)
		ref := rand.NewZipf(rand.New(theirs), c.s, 1, c.imax)
		if z.n == 0 {
			t.Errorf("%s: empty head table", c.name)
		}
		head := 0
		for d := range draws {
			got, want := z.Uint64(), ref.Uint64()
			if got != want {
				t.Fatalf("%s: draw %d is %d, math/rand's %d", c.name, d, got, want)
			}
			if got < uint64(z.n) {
				head++
			}
		}
		if ours.drawn != theirs.drawn {
			t.Errorf("%s: %d source values drawn, math/rand %d", c.name, ours.drawn, theirs.drawn)
		}
		t.Logf("%s: s=%.4f imax=%d, head of %d values, %.1f%% of draws in it",
			c.name, c.s, c.imax, z.n, 100*float64(head)/draws)
	}
}

// TestZipfHeadEdges forces the draw at every head interval edge and one
// ulp either side of it, followed by a seeded stream for any redraws, into
// both samplers: inside an interval the table answers, outside it the
// loop does, and either way the value and the draws consumed must be
// math/rand's.
func TestZipfHeadEdges(t *testing.T) {
	for _, c := range zipfCases(t) {
		z := newZipf(rand.New(rand.NewSource(1)), c.s, 1, c.imax)
		for k := range z.n {
			for _, edge := range []float64{z.head[k].lo, z.head[k].hi} {
				for _, r := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 2)} {
					if r >= 1 {
						continue
					}
					v := float64Draw(t, r)
					ours, theirs := newScriptSource(7, v), newScriptSource(7, v)
					got := newZipf(rand.New(ours), c.s, 1, c.imax).Uint64()
					want := rand.NewZipf(rand.New(theirs), c.s, 1, c.imax).Uint64()
					if got != want || ours.drawn != theirs.drawn {
						t.Errorf("%s: draw %v at head %d edge %v: %d after %d draws, math/rand %d after %d",
							c.name, r, k, edge, got, ours.drawn, want, theirs.drawn)
					}
					inside := r >= z.head[k].lo && r <= z.head[k].hi
					if inside && (got != uint64(k) || ours.drawn != 1) {
						t.Errorf("%s: draw %v inside head %d gave %d after %d draws", c.name, r, k, got, ours.drawn)
					}
				}
			}
		}
	}
}

// TestInt63nMatchesMathRand compares int63n with rand.Int63n for every
// jitter base and a few others, on scripted draws that hit the rejection
// bound from both sides, and on a seeded stream: the results and the
// draws consumed must agree.
func TestInt63nMatchesMathRand(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 5, 7, 8, 9, 10, 12, 64, 1 << 40, 1<<40 + 1, math.MaxInt64} {
		// rand.Int63n redraws every value above this bound.
		bound := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		scripts := [][]int64{
			{0}, {1}, {n - 1}, {n}, {bound}, {bound - 1},
			{math.MaxInt64, 5}, {math.MaxInt64 - n, 5},
		}
		if bound < math.MaxInt64 {
			scripts = append(scripts, []int64{bound + 1, 6}, []int64{bound + 1, math.MaxInt64, bound, 6})
		}
		scripts = append(scripts, nil) // the seeded stream alone
		for _, script := range scripts {
			ours, theirs := newScriptSource(3, script...), newScriptSource(3, script...)
			ra, rb := rand.New(ours), rand.New(theirs)
			for i := range 100 {
				if got, want := int63n(ra, n), rb.Int63n(n); got != want || ours.drawn != theirs.drawn {
					t.Fatalf("n=%d script %v call %d: %d after %d draws, rand.Int63n %d after %d",
						n, script, i, got, ours.drawn, want, theirs.drawn)
				}
			}
		}
	}
}
