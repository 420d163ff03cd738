package trace

import (
	"testing"

	"repro/internal/memnode"
)

// BenchmarkTraceGenerate times the uncached kernel per Table IV workload at
// the benchmark's session shape (N=128, 400 ops): warm-up dominates, so
// ns/access is the cache model plus the workload's access generator.
func BenchmarkTraceGenerate(b *testing.B) {
	m := memnode.NewAddressMap(128)
	for _, name := range WorkloadNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				w, err := NewWorkload(name, m.CapacityBytes(), 1)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := Generate(w, m, 400, 101)
				if err != nil {
					b.Fatal(err)
				}
				accesses += WarmupAccesses + tr.RawAccesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
