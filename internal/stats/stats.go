package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is an integer-bucketed histogram with exact percentile queries.
// It is used for hop-count and latency distributions. The zero value is ready
// to use; buckets grow on demand.
type Histogram struct {
	counts []int64
	total  int64
}

// Observe records one occurrence of value v (v < 0 is clamped to 0).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// ObserveN records n occurrences of value v. Non-positive n is ignored: a
// negative count would silently corrupt total (and Merge would propagate the
// corruption into every downstream aggregate).
func (h *Histogram) ObserveN(v int, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v] += n
	h.total += n
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Mean returns the mean of the recorded values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.Sum() / float64(h.total)
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// Percentile returns the smallest value v such that at least p (0..1) of the
// observations are <= v. Percentile(0.5) is the median.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target < 1 {
		target = 1
	}
	// total > 0 guarantees the cumulative count reaches target by the last
	// bucket, so the last index needs no check: every return is reachable.
	v := 0
	var cum int64
	for ; v < len(h.counts)-1; v++ {
		cum += h.counts[v]
		if cum >= target {
			break
		}
	}
	return v
}

// Sum returns the sum of all recorded values, each value weighted by its
// observation count.
func (h *Histogram) Sum() float64 {
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum
}

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	for v, c := range o.counts {
		if c != 0 {
			h.ObserveN(v, c)
		}
	}
}

// Clone returns an independent copy of the histogram — the cheap snapshot
// primitive behind interval telemetry: O(buckets) with no allocation beyond
// the bucket slice.
func (h *Histogram) Clone() Histogram {
	return Histogram{counts: append([]int64(nil), h.counts...), total: h.total}
}

// NewHistogramBuffer returns a histogram that grows into buf: observations
// append into buf's backing array and allocate only once the histogram
// outgrows cap(buf). It is the arena constructor behind netsim's per-flow
// accounting, where many small histograms share one pre-carved slice and
// the steady state must stay off the allocator.
func NewHistogramBuffer(buf []int64) Histogram {
	return Histogram{counts: buf[:0]}
}

// Reset zeroes the histogram in place, keeping the bucket storage (arena or
// grown) for reuse. Interval-local accounting resets after each emission
// instead of cloning a baseline, so per-interval cost is O(buckets touched)
// with no allocation.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.counts = h.counts[:0]
	h.total = 0
}

// DeltaSince returns the histogram of observations recorded between prev (an
// earlier Clone of this histogram) and now. Buckets where prev exceeds the
// current count — only possible when prev is not actually an earlier snapshot
// — contribute nothing. The receiver is unchanged.
func (h *Histogram) DeltaSince(prev *Histogram) Histogram {
	var d Histogram
	for v, c := range h.counts {
		if v < len(prev.counts) {
			c -= prev.counts[v]
		}
		d.ObserveN(v, c)
	}
	return d
}

// Mean returns the arithmetic mean of the sample, or 0 when empty.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// GeoMean returns the geometric mean of the sample, or 0 when empty. Values
// must be positive; non-positive values are skipped.
func GeoMean(sample []float64) float64 {
	var sum float64
	var n int
	for _, v := range sample {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Series is a labeled table of rows used as the common output format of every
// experiment: one Series per figure/table, one row per data point.
type Series struct {
	Name    string
	Columns []string
	Rows    [][]float64
	Labels  []string // optional per-row label (e.g. workload name)
}

// NewSeries creates a named series with the given column headers.
func NewSeries(name string, columns ...string) *Series {
	return &Series{Name: name, Columns: columns}
}

// AddRow appends an unlabeled row. The number of values must match Columns.
func (s *Series) AddRow(values ...float64) {
	s.Rows = append(s.Rows, values)
	s.Labels = append(s.Labels, "")
}

// AddLabeledRow appends a row with a leading text label.
func (s *Series) AddLabeledRow(label string, values ...float64) {
	s.Rows = append(s.Rows, values)
	s.Labels = append(s.Labels, label)
}

// String renders the series as an aligned text table, the format printed by
// cmd/sfexp and the benchmarks.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", s.Name)
	hasLabels := false
	for _, l := range s.Labels {
		if l != "" {
			hasLabels = true
			break
		}
	}
	widths := make([]int, len(s.Columns))
	cells := make([][]string, len(s.Rows))
	for i, row := range s.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = formatCell(v)
			if j < len(widths) && len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	for j, c := range s.Columns {
		if len(c) > widths[j] {
			widths[j] = len(c)
		}
	}
	labelWidth := 0
	if hasLabels {
		for _, l := range s.Labels {
			if len(l) > labelWidth {
				labelWidth = len(l)
			}
		}
		fmt.Fprintf(&b, "%-*s  ", labelWidth, "")
	}
	for j, c := range s.Columns {
		fmt.Fprintf(&b, "%*s  ", widths[j], c)
	}
	b.WriteByte('\n')
	for i, row := range s.Rows {
		if hasLabels {
			fmt.Fprintf(&b, "%-*s  ", labelWidth, s.Labels[i])
		}
		for j := range row {
			w := 0
			if j < len(widths) {
				w = widths[j]
			}
			fmt.Fprintf(&b, "%*s  ", w, cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
