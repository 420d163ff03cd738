package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// Sample is one rendered exposition line: a metric name (with any label
// set already formatted into it) and its value.
type Sample struct {
	// Name is the full sample name including an optional {label="value"}
	// block, e.g. `sf_worker_active{worker="2"}`.
	Name  string
	Value float64
}

// family is one registered metric family: its metadata and the callback
// that reads its samples.
type family struct {
	name, help, typ string
	fn              func() []Sample
}

// Registry holds a set of metric families and renders them as one text
// exposition page. Every family is a callback read at scrape time, so the
// values stay with their owners and nothing is pushed between scrapes.
// All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []family // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds the family name with its help text and Prometheus type
// ("counter", "gauge" or "histogram"). fn is invoked at every scrape and
// may return any number of samples, labeled or not (including zero).
// Re-registering a name replaces the family in place.
func (r *Registry) Register(name, help, typ string, fn func() []Sample) {
	f := family{name: name, help: help, typ: typ, fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.fams {
		if r.fams[i].name == name {
			r.fams[i] = f
			return
		}
	}
	r.fams = append(r.fams, f)
}

// Buckets renders a Prometheus histogram's samples: the cumulative
// `_bucket{le=...}` series over bounds and +Inf, then `_sum` and `_count`.
// counts[i] holds the observations that fell in bucket i (above
// bounds[i-1], at or below bounds[i]) and counts[len(bounds)] those past
// the largest bound; sum is the raw sum of the observations.
func Buckets(name string, bounds []int, counts []int64, sum float64) []Sample {
	out := make([]Sample, 0, len(bounds)+3)
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		out = append(out, Sample{Name: fmt.Sprintf("%s_bucket{le=\"%d\"}", name, b), Value: float64(cum)})
	}
	cum += counts[len(bounds)]
	return append(out,
		Sample{Name: name + `_bucket{le="+Inf"}`, Value: float64(cum)},
		Sample{Name: name + "_sum", Value: sum},
		Sample{Name: name + "_count", Value: float64(cum)})
}

// WriteTo renders the registry as one Prometheus text exposition page:
// families in registration order, each with # HELP and # TYPE headers.
// It implements io.WriterTo so an HTTP handler can stream it.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	// Copy the family list under the lock, so a scrape never races a
	// registration and callbacks run without it.
	r.mu.Lock()
	fams := append([]family(nil), r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.fn() {
			writeSample(&b, s.Name, s.Value)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeSample renders one `name value` line, formatting integral values
// without an exponent so counters stay exact in the exposition.
func writeSample(b *strings.Builder, name string, v float64) {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		fmt.Fprintf(b, "%s %d\n", name, int64(v))
		return
	}
	fmt.Fprintf(b, "%s %g\n", name, v)
}
