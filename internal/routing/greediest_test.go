package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func buildSF(t *testing.T, cfg topology.Config) (*topology.StringFigure, *Greediest) {
	t.Helper()
	sf, err := topology.NewStringFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sf, NewGreediest(sf, 0)
}

func TestGreediestDeliversAllPairsUnidirectional(t *testing.T) {
	_, g := buildSF(t, topology.Config{N: 61, Ports: 4, Seed: 3})
	for src := 0; src < 61; src++ {
		for dst := 0; dst < 61; dst++ {
			if src == dst {
				continue
			}
			if _, err := g.Route(src, dst); err != nil {
				t.Fatalf("route %d->%d failed: %v", src, dst, err)
			}
		}
	}
}

func TestGreediestDeliversAllPairsBidirectional(t *testing.T) {
	_, g := buildSF(t, topology.Config{N: 61, Ports: 4, Seed: 3, Bidirectional: true})
	if g.Metric != Symmetric {
		t.Fatalf("bidirectional build should use symmetric metric, got %v", g.Metric)
	}
	for src := 0; src < 61; src++ {
		for dst := 0; dst < 61; dst++ {
			if src == dst {
				continue
			}
			if _, err := g.Route(src, dst); err != nil {
				t.Fatalf("route %d->%d failed: %v", src, dst, err)
			}
		}
	}
}

// TestLoopFreedomProperty is the Appendix A theorem as a property test: on
// random topologies and random pairs, greedy routes terminate, never revisit
// a node, and MD to the destination strictly decreases at every hop.
func TestLoopFreedomProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, bRaw uint8) bool {
		n := 8 + int(nRaw)%150
		ports := []int{4, 6, 8}[int(pRaw)%3]
		bidi := bRaw%2 == 0
		sf, err := topology.NewStringFigure(topology.Config{
			N: n, Ports: ports, Seed: seed, Bidirectional: bidi,
		})
		if err != nil {
			return false
		}
		g := NewGreediest(sf, 0)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for trial := 0; trial < 30; trial++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			path, err := g.Route(src, dst)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, v := range path {
				if seen[v] {
					return false // revisited a node: loop
				}
				seen[v] = true
			}
			prev := g.MD(src, dst)
			for _, v := range path[1:] {
				cur := g.MD(v, dst)
				if cur >= prev {
					return false // MD did not strictly decrease
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCandidatesStrictlyImprove(t *testing.T) {
	_, g := buildSF(t, topology.Config{N: 40, Ports: 8, Seed: 5})
	for src := 0; src < 40; src++ {
		for dst := 0; dst < 40; dst++ {
			if src == dst {
				if c := g.Candidates(src, dst); c != nil {
					t.Fatalf("Candidates(%d,%d) = %v, want nil at destination", src, dst, c)
				}
				continue
			}
			md := g.MD(src, dst)
			for _, w := range g.Candidates(src, dst) {
				if w == dst {
					continue
				}
				if g.MD(w, dst) >= md {
					t.Fatalf("candidate %d from %d to %d does not improve MD", w, src, dst)
				}
			}
		}
	}
}

func TestDirectNeighborShortCircuit(t *testing.T) {
	sf, g := buildSF(t, topology.Config{N: 30, Ports: 4, Seed: 9})
	out := sf.OutNeighbors()
	for v := 0; v < 30; v++ {
		for _, w := range out[v] {
			cands := g.Candidates(v, w)
			if len(cands) != 1 || cands[0] != w {
				t.Fatalf("Candidates(%d,%d) = %v, want direct [%d]", v, w, cands, w)
			}
		}
	}
}

func TestLookaheadNotWorse(t *testing.T) {
	// With 2-hop lookahead enabled, average path length must not exceed the
	// plain greedy protocol's (that is the point of storing 2-hop entries).
	sf, err := topology.NewStringFigure(topology.Config{N: 100, Ports: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	with := NewGreediest(sf, 0)
	without := NewGreediest(sf, 0)
	without.Lookahead = false
	var sumWith, sumWithout, pairs int
	for src := 0; src < 100; src += 3 {
		for dst := 0; dst < 100; dst += 7 {
			if src == dst {
				continue
			}
			a, ok1 := with.ZeroLoadPathLength(src, dst)
			b, ok2 := without.ZeroLoadPathLength(src, dst)
			if !ok1 || !ok2 {
				t.Fatalf("routing failed for %d->%d", src, dst)
			}
			sumWith += a
			sumWithout += b
			pairs++
		}
	}
	if sumWith > sumWithout {
		t.Errorf("lookahead mean path %.3f worse than plain %.3f",
			float64(sumWith)/float64(pairs), float64(sumWithout)/float64(pairs))
	}
}

func TestVirtualChannelAssignment(t *testing.T) {
	_, g := buildSF(t, topology.Config{N: 16, Ports: 4, Seed: 1})
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			vc := g.VirtualChannel(src, dst)
			if vc != 0 && vc != 1 {
				t.Fatalf("VC(%d,%d) = %d", src, dst, vc)
			}
			lower := g.Coords.At(0, src) <= g.Coords.At(0, dst)
			if lower != (vc == 0) {
				t.Fatalf("VC(%d,%d) = %d inconsistent with coordinate order", src, dst, vc)
			}
		}
	}
}

func TestQuantizedCoordinatesSmallNetwork(t *testing.T) {
	// With 7-bit coordinates a 32-node network still routes everywhere:
	// 128 quantization steps comfortably separate 32 balanced slots.
	sf, err := topology.NewStringFigure(topology.Config{N: 32, Ports: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGreediest(sf, 7)
	for src := 0; src < 32; src++ {
		for dst := 0; dst < 32; dst++ {
			if src == dst {
				continue
			}
			if _, err := g.Route(src, dst); err != nil {
				t.Fatalf("7-bit route %d->%d failed: %v", src, dst, err)
			}
		}
	}
}

func TestQuantizationCollapsesLargeNetwork(t *testing.T) {
	// Documented limitation: at N >> 2^7 quantized coordinates cannot
	// distinguish ring neighbors, so strict-decrease routing must fail for
	// some pair. experiments.QuantizationStudy (sfexp -exp placement)
	// measures the delivered fraction per coordinate width.
	sf, err := topology.NewStringFigure(topology.Config{N: 600, Ports: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGreediest(sf, 7)
	failures := 0
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		src, dst := rng.Intn(600), rng.Intn(600)
		if src == dst {
			continue
		}
		if _, err := g.Route(src, dst); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Error("expected some routing failures with 7-bit coordinates at N=600")
	}
}

func TestRouteSelfIsTrivial(t *testing.T) {
	_, g := buildSF(t, topology.Config{N: 10, Ports: 4, Seed: 2})
	path, err := g.Route(3, 3)
	if err != nil || len(path) != 1 || path[0] != 3 {
		t.Fatalf("Route(3,3) = %v, %v; want [3]", path, err)
	}
}

// TestCoordinatesMatchPerCallFormula pins the quantize-once, node-major
// layout to the definition it replaced: At is floor(x*2^bits)/2^bits of the
// topology's coordinate (x itself at bits 0), and MD is the compare-and-
// branch fold of the metric's distance over spaces — bit for bit
// (math.Float64bits), for both metrics, on every pair of an N=1024 network.
// For the symmetric metric this holds the branch-free MD to the
// topology.CircularDistance fold it replaced.
func TestCoordinatesMatchPerCallFormula(t *testing.T) {
	const n = 1024
	sf, err := topology.NewPaperSF(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{0, 7, 12} {
		c := NewCoordinates(sf.Coord, bits)
		at := make([][]float64, c.Spaces()) // at[s][v], from the definition
		for s := range at {
			at[s] = make([]float64, n)
			for v, x := range sf.Coord[s] {
				if bits > 0 {
					scale := math.Pow(2, float64(bits))
					x = math.Floor(x*scale) / scale
				}
				if at[s][v] = x; c.At(s, v) != x {
					t.Fatalf("bits %d: At(%d,%d) = %v, want %v", bits, s, v, c.At(s, v), x)
				}
			}
		}
		for _, m := range []Metric{Symmetric, Clockwise} {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					want := math.Inf(1)
					for s := range at {
						d := topology.CircularDistance(at[s][u], at[s][v])
						if m == Clockwise {
							d = topology.ClockwiseDistance(at[s][u], at[s][v])
						}
						if d != c.Distance(m, s, u, v) {
							t.Fatalf("bits %d %v: Distance(%d,%d,%d) = %v, want %v", bits, m, s, u, v, c.Distance(m, s, u, v), d)
						}
						if d < want {
							want = d
						}
					}
					if got := c.MD(m, u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("bits %d %v: MD(%d,%d) = %v (%#x), branchy fold %v (%#x)",
							bits, m, u, v, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
