package trace

import (
	"math/rand"
	"testing"
)

// TestKeyValueObjectBase holds keyValue's masked reduction equal to the
// plain modulus it replaces, at a power-of-two capacity (the mask) and at
// one that is not (the division), over the workload's own Zipf draws, the
// extreme objects and random ones whose scattered offset wraps mod 2^64.
func TestKeyValueObjectBase(t *testing.T) {
	const gb = 1 << 30
	for _, capacity := range []uint64{128 * 8 * gb, 100 * 8 * gb} {
		for _, name := range []string{"redis", "memcached"} {
			wl, err := NewWorkload(name, capacity, 7)
			if err != nil {
				t.Fatal(err)
			}
			w := wl.(*keyValue)
			w.Next(rand.New(rand.NewSource(1))) // builds zipf, perm and mask
			if pow2 := capacity&(capacity-1) == 0; (w.mask != 0) != pow2 {
				t.Fatalf("%s at %d B: mask %#x, power of two %v", name, capacity, w.mask, pow2)
			}
			objects := w.span / (w.objLines * 64)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 200_000; i++ {
				var obj uint64
				switch {
				case i < 100_000:
					obj = w.zipf.Uint64()
				case i < 100_010:
					obj = objects - 1 - uint64(i-100_000)
				default:
					obj = rng.Uint64()
				}
				want := (obj*w.objLines*64 + w.perm[obj%4096]*64) % w.span &^ 63
				if got := w.objectBase(obj); got != want {
					t.Fatalf("%s at %d B, object %d: base %d, the plain modulus gives %d", name, capacity, obj, got, want)
				}
			}
		}
	}
}
