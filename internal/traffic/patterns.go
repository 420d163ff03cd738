package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Pattern generates a destination node for a source node. ok=false skips
// the injection (used when the pattern maps a node to itself).
type Pattern func(src int, rng *rand.Rand) (dst int, ok bool)

// PatternNames lists the Table III patterns in paper order.
var PatternNames = []string{
	"uniform", "tornado", "hotspot", "opposite", "neighbor", "complement", "partition2",
}

// NewPattern returns the named Table III pattern for an n-node network.
// Formulas follow the paper exactly, with nports = n (one router per node):
//
//	uniform:    dest = randint(0, n-1)
//	tornado:    dest = (src + n/2) % n
//	hotspot:    dest = const (node 0)
//	opposite:   dest = n - 1 - src
//	neighbor:   dest = src + 1
//	complement: dest = src XOR (n-1)
//	partition2: random destination within the source's half of the network
func NewPattern(name string, n int) (Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: need n >= 2, got %d", n)
	}
	switch name {
	case "uniform":
		return func(src int, rng *rand.Rand) (int, bool) {
			d := rng.Intn(n)
			return d, d != src
		}, nil
	case "tornado":
		return func(src int, rng *rand.Rand) (int, bool) {
			d := (src + n/2) % n
			return d, d != src
		}, nil
	case "hotspot":
		return func(src int, rng *rand.Rand) (int, bool) {
			return 0, src != 0
		}, nil
	case "opposite":
		return func(src int, rng *rand.Rand) (int, bool) {
			d := n - 1 - src
			return d, d != src
		}, nil
	case "neighbor":
		return func(src int, rng *rand.Rand) (int, bool) {
			d := (src + 1) % n
			return d, d != src
		}, nil
	case "complement":
		// Bitwise complement within the smallest power-of-two mask that
		// covers n; destinations beyond n-1 wrap (the paper's formula
		// assumes a power-of-two network, String Figure does not).
		mask := 1
		for mask < n {
			mask <<= 1
		}
		mask--
		return func(src int, rng *rand.Rand) (int, bool) {
			d := (src ^ mask) % n
			return d, d != src
		}, nil
	case "partition2":
		half := n / 2
		return func(src int, rng *rand.Rand) (int, bool) {
			var d int
			if src < half {
				d = rng.Intn(half)
			} else {
				d = half + rng.Intn(n-half)
			}
			return d, d != src
		}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (want one of %v)", name, PatternNames)
	}
}

// Subset restricts injection to the given source nodes (the paper's
// processor-placement study injects from corner nodes, subsets, or all
// nodes). Other sources never inject.
func Subset(p Pattern, sources []int) Pattern {
	allowed := make(map[int]bool, len(sources))
	for _, s := range sources {
		allowed[s] = true
	}
	return func(src int, rng *rand.Rand) (int, bool) {
		if !allowed[src] {
			return 0, false
		}
		return p(src, rng)
	}
}

// Zipf returns a destination sampler with Zipfian popularity (exponent
// alpha over n nodes), the key-popularity model behind the Redis, Memcached
// and PageRank workloads. Node popularity ranks are shuffled by seed so the
// hot nodes are spread across the network.
func Zipf(n int, alpha float64, seed int64) Pattern {
	shuffleRng := rand.New(rand.NewSource(seed))
	perm := shuffleRng.Perm(n)
	// Precompute the CDF.
	weights := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(i+1), alpha)
		weights[i] = w
		total += w
	}
	cdf := make([]float64, n)
	var cum float64
	for i, w := range weights {
		cum += w / total
		cdf[i] = cum
	}
	return func(src int, rng *rand.Rand) (int, bool) {
		u := rng.Float64()
		idx := sort.SearchFloat64s(cdf, u)
		if idx >= n {
			idx = n - 1
		}
		d := perm[idx]
		return d, d != src
	}
}
