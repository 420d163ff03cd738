package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for v := 1; v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Errorf("P50 = %d, want 50", got)
	}
	if got := h.Percentile(0.10); got != 10 {
		t.Errorf("P10 = %d, want 10", got)
	}
	if got := h.Percentile(0.90); got != 90 {
		t.Errorf("P90 = %d, want 90", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("P100 = %d, want 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %d, want 100", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	var h Histogram
	if h.Percentile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should return zeros")
	}
	h.Observe(-5) // clamped to bucket 0
	if h.Total() != 1 || h.Max() != 0 {
		t.Errorf("clamp failed: total=%d max=%d", h.Total(), h.Max())
	}
}

func TestHistogramObserveNRejectsNonPositive(t *testing.T) {
	var h Histogram
	h.ObserveN(3, 5)
	h.ObserveN(3, -4) // must not corrupt total or counts
	h.ObserveN(9, -1)
	h.ObserveN(7, 0)
	if h.Total() != 5 {
		t.Errorf("Total = %d after negative ObserveN, want 5", h.Total())
	}
	if got := h.Percentile(1.0); got != 3 {
		t.Errorf("P100 = %d after negative ObserveN, want 3", got)
	}
	if h.Max() != 3 {
		t.Errorf("Max = %d after negative ObserveN, want 3", h.Max())
	}
	// Merge must not propagate a would-be corruption either.
	var a Histogram
	a.ObserveN(1, 2)
	a.Merge(&h)
	if a.Total() != 7 {
		t.Errorf("merged Total = %d, want 7", a.Total())
	}
}

func TestHistogramPercentileSingleBucket(t *testing.T) {
	// A single-bucket histogram exercises the loop-free path of Percentile
	// (the last bucket returns without a cumulative check).
	var h Histogram
	h.ObserveN(0, 4)
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("P%v = %d, want 0", p, got)
		}
	}
	h.Observe(6)
	if got := h.Percentile(1.0); got != 6 {
		t.Errorf("P100 = %d, want 6 (last bucket)", got)
	}
}

func TestHistogramCloneAndDeltaSince(t *testing.T) {
	var h Histogram
	h.ObserveN(2, 3)
	h.ObserveN(10, 1)
	snap := h.Clone()
	h.ObserveN(2, 2)
	h.ObserveN(15, 4)
	if snap.Total() != 4 {
		t.Errorf("snapshot mutated by later observations: total=%d", snap.Total())
	}
	d := h.DeltaSince(&snap)
	if d.Total() != 6 {
		t.Errorf("delta total = %d, want 6", d.Total())
	}
	if d.Max() != 15 {
		t.Errorf("delta max = %d, want 15", d.Max())
	}
	if got := d.Percentile(0.5); got != 15 {
		t.Errorf("delta P50 = %d, want 15", got)
	}
	// The receiver and the snapshot are unchanged by the delta query.
	if h.Total() != 10 || snap.Total() != 4 {
		t.Errorf("DeltaSince mutated inputs: h=%d snap=%d", h.Total(), snap.Total())
	}
	// Delta against an empty baseline is the full histogram.
	var zero Histogram
	if full := h.DeltaSince(&zero); full.Total() != 10 {
		t.Errorf("delta from empty = %d, want 10", full.Total())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.ObserveN(2, 3)
	b.ObserveN(5, 7)
	a.Merge(&b)
	if a.Total() != 10 {
		t.Errorf("Total = %d, want 10", a.Total())
	}
	if a.Max() != 5 {
		t.Errorf("Max = %d, want 5", a.Max())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(values []uint8) bool {
		var h Histogram
		for _, v := range values {
			h.Observe(int(v))
		}
		prev := -1
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{0, -1}); got != 0 {
		t.Errorf("GeoMean of non-positive = %v, want 0", got)
	}
	// Non-positive values are skipped, not zeroed.
	if got := GeoMean([]float64{4, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean skipping zero = %v, want 4", got)
	}
}

func TestSeriesString(t *testing.T) {
	s := NewSeries("Figure X", "nodes", "hops")
	s.AddRow(16, 2.5)
	s.AddLabeledRow("big", 1296, 4.96)
	out := s.String()
	for _, want := range []string{"Figure X", "nodes", "hops", "1296", "4.960", "big"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesUnlabeledOmitsLabelColumn(t *testing.T) {
	s := NewSeries("plain", "a")
	s.AddRow(1)
	out := s.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if strings.HasPrefix(lines[1], " ") && strings.TrimSpace(lines[1]) == "a" &&
		len(lines[1]) > len("a")+4 {
		t.Errorf("unexpected label padding in header %q", lines[1])
	}
}

func TestHistogramSum(t *testing.T) {
	var h Histogram
	h.ObserveN(2, 3)  // three 2s
	h.Observe(5)      // one 5
	h.ObserveN(10, 2) // two 10s
	if got, want := h.Sum(), float64(3*2+5+2*10); got != want {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
	var empty Histogram
	if empty.Sum() != 0 {
		t.Errorf("empty histogram: Sum=%v, want 0", empty.Sum())
	}
}
