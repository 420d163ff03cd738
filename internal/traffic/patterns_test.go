package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllPatternsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range PatternNames {
		p, err := NewPattern(name, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for src := 0; src < 64; src++ {
			for trial := 0; trial < 20; trial++ {
				dst, ok := p(src, rng)
				if !ok {
					continue
				}
				if dst < 0 || dst >= 64 {
					t.Fatalf("%s: dst %d out of range", name, dst)
				}
				if dst == src {
					t.Fatalf("%s: self destination from %d", name, src)
				}
			}
		}
	}
}

func TestUnknownPattern(t *testing.T) {
	if _, err := NewPattern("bogus", 16); err == nil {
		t.Error("unknown pattern should fail")
	}
	if _, err := NewPattern("uniform", 1); err == nil {
		t.Error("n=1 should fail")
	}
}

func TestTornadoFormula(t *testing.T) {
	p, _ := NewPattern("tornado", 16)
	rng := rand.New(rand.NewSource(1))
	d, ok := p(3, rng)
	if !ok || d != 11 {
		t.Errorf("tornado(3) = %d,%v want 11,true", d, ok)
	}
}

func TestOppositeFormula(t *testing.T) {
	p, _ := NewPattern("opposite", 16)
	rng := rand.New(rand.NewSource(1))
	d, ok := p(3, rng)
	if !ok || d != 12 {
		t.Errorf("opposite(3) = %d,%v want 12,true", d, ok)
	}
	// Middle of an odd network maps to itself and is skipped.
	p2, _ := NewPattern("opposite", 15)
	if _, ok := p2(7, rng); ok {
		t.Error("opposite self-map should be skipped")
	}
}

func TestComplementOnNonPowerOfTwo(t *testing.T) {
	p, _ := NewPattern("complement", 9)
	rng := rand.New(rand.NewSource(1))
	for src := 0; src < 9; src++ {
		if dst, ok := p(src, rng); ok && (dst < 0 || dst >= 9) {
			t.Fatalf("complement(%d) = %d out of range", src, dst)
		}
	}
}

func TestHotspotTargets(t *testing.T) {
	p, _ := NewPattern("hotspot", 32)
	rng := rand.New(rand.NewSource(1))
	for src := 1; src < 32; src++ {
		d, ok := p(src, rng)
		if !ok || d != 0 {
			t.Fatalf("hotspot(%d) = %d,%v", src, d, ok)
		}
	}
	if _, ok := p(0, rng); ok {
		t.Error("hotspot from the hotspot itself should be skipped")
	}
}

func TestPartition2StaysInHalf(t *testing.T) {
	p, _ := NewPattern("partition2", 32)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		src := rng.Intn(32)
		dst, ok := p(src, rng)
		if !ok {
			continue
		}
		if (src < 16) != (dst < 16) {
			t.Fatalf("partition2 crossed halves: %d -> %d", src, dst)
		}
	}
}

func TestNeighborWraps(t *testing.T) {
	p, _ := NewPattern("neighbor", 8)
	rng := rand.New(rand.NewSource(1))
	if d, ok := p(7, rng); !ok || d != 0 {
		t.Errorf("neighbor(7) = %d,%v want 0", d, ok)
	}
}

func TestSubsetRestrictsSources(t *testing.T) {
	base, _ := NewPattern("uniform", 16)
	p := Subset(base, []int{2, 5})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		if _, ok := p(7, rng); ok {
			t.Fatal("non-member source injected")
		}
	}
	injected := false
	for trial := 0; trial < 100; trial++ {
		if _, ok := p(2, rng); ok {
			injected = true
		}
	}
	if !injected {
		t.Error("member source never injected")
	}
}

func TestZipfSkew(t *testing.T) {
	p := Zipf(64, 1.2, 9)
	rng := rand.New(rand.NewSource(4))
	counts := make(map[int]int)
	total := 20000
	for i := 0; i < total; i++ {
		if d, ok := p(1, rng); ok {
			counts[d]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The most popular node must far exceed the uniform share.
	if float64(max) < 3*float64(total)/64 {
		t.Errorf("zipf max share %d too flat for alpha=1.2", max)
	}
}

func TestPatternsProperty(t *testing.T) {
	f := func(nRaw uint8, srcRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%200
		src := int(srcRaw) % n
		rng := rand.New(rand.NewSource(seed))
		for _, name := range PatternNames {
			p, err := NewPattern(name, n)
			if err != nil {
				return false
			}
			for i := 0; i < 5; i++ {
				dst, ok := p(src, rng)
				if ok && (dst < 0 || dst >= n || dst == src) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
