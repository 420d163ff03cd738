package trace

import (
	"testing"

	"repro/internal/memnode"
)

// generateOnce synthesizes one uncached trace of the named workload at the
// benchmark's session shape (N=128, 400 ops) and returns the cache-model
// accesses it cost.
func generateOnce(tb testing.TB, m memnode.AddressMap, name string) int64 {
	tb.Helper()
	tr, err := generateNamed(name, m, 400, 1, 101)
	if err != nil {
		tb.Fatal(err)
	}
	return WarmupAccesses + tr.RawAccesses
}

// BenchmarkTraceGenerate times the uncached kernel per Table IV workload:
// warm-up dominates, so ns/access is the cache model plus the workload's
// access generator.
func BenchmarkTraceGenerate(b *testing.B) {
	m := memnode.NewAddressMap(128)
	for _, name := range WorkloadNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				accesses += generateOnce(b, m, name)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}

// BenchmarkTraceSlotSynthesis times the path sessions take: each synthesis
// builds its workload afresh, as Shared does, and runs on a warm synthesis
// slot, whose hierarchy the previous one dirtied and Reset leaves for the
// lazy warm-up to empty unit by unit.
func BenchmarkTraceSlotSynthesis(b *testing.B) {
	m := memnode.NewAddressMap(128)
	for _, name := range WorkloadNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := NewWorkload(name, m.CapacityBytes(), 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := synthesizeOnSlot(w, m, 400, 101); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGenerateAllocs counts one synthesis exactly: a trace is a handful of
// flat arrays, not an allocation per cache set or per access (9–14
// allocations per workload when the ceiling was set, 9–16 under -race).
// Shared's synthesis through a warm slot reuses the slot's hierarchy, so it
// must make at least 3 fewer: it allocates no Hierarchy and none of its
// three levels (4 objects, leaving room for one stray runtime allocation,
// which two measured runs average away).
func TestGenerateAllocs(t *testing.T) {
	const ceiling = 32
	m := memnode.NewAddressMap(128)
	for _, name := range WorkloadNames {
		allocs := testing.AllocsPerRun(1, func() { generateOnce(t, m, name) })
		slotted := testing.AllocsPerRun(2, func() {
			w, err := NewWorkload(name, m.CapacityBytes(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := synthesizeOnSlot(w, m, 400, 101); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations, %v through a warm slot", name, allocs, slotted)
		if allocs > ceiling {
			t.Errorf("%s: %v allocations to synthesize one trace, ceiling %d", name, allocs, ceiling)
		}
		if slotted > allocs-3 {
			t.Errorf("%s: a warm-slot synthesis makes %v allocations, Generate %v; want at least 3 fewer",
				name, slotted, allocs)
		}
	}
}
