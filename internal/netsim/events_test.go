package netsim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestActiveSetInvariant drives worklists of several sizes (one word, word
// edges, the paper's N=1024, past one summary word, the 2^16 ceiling)
// through random set and clear sequences, sets of members included, and
// after every step compares the member count and the
// summary with a recount of the member words, and the members with a
// reference set.
func TestActiveSetInvariant(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1024, 4097, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := newActiveSet(n, make([]uint64, activeSetLen(n)))
		ref := make([]bool, n)
		// Draw from a window of routers so that sets and clears collide
		// and words fill and empty; the window moves to reach every word.
		for step := 0; step < 20_000; step++ {
			lo := (step / 500) * 97 % n
			v := (lo + rng.Intn(min(n, 150))) % n
			if rng.Intn(2) == 0 {
				a.set(v)
				ref[v] = true
			} else if ref[v] { // clear takes members only
				a.clear(v)
				ref[v] = false
			}
			if step%97 == 0 || n <= 1024 {
				checkActiveSet(t, n, step, &a, ref)
			}
		}
		checkActiveSet(t, n, -1, &a, ref)
	}
}

func checkActiveSet(t *testing.T, n, step int, a *activeSet, ref []bool) {
	t.Helper()
	members := 0
	for wi, w := range a.words {
		members += bits.OnesCount64(w)
		if on := a.sum[wi>>6]&(1<<uint(wi&63)) != 0; on != (w != 0) {
			t.Fatalf("n=%d step %d: summary bit of word %d is %v, word is %#x", n, step, wi, on, w)
		}
	}
	if a.count() != int64(members) {
		t.Fatalf("n=%d step %d: count %d, recount %d", n, step, a.count(), members)
	}
	for wi := len(a.words); wi < len(a.sum)*64; wi++ {
		if a.sum[wi>>6]&(1<<uint(wi&63)) != 0 {
			t.Fatalf("n=%d step %d: summary bit %d past the last word", n, step, wi)
		}
	}
	for v := 0; v < n; v++ {
		if in := a.words[v>>6]&(1<<uint(v&63)) != 0; in != ref[v] {
			t.Fatalf("n=%d step %d: router %d member %v, want %v", n, step, v, in, ref[v])
		}
	}
}
