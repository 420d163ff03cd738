package metrics

import (
	"strings"
	"testing"
)

// render returns the registry's exposition page.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHistogramClampBoundsMemory pins the histogram exposition's overflow
// slot: observations past the largest bound count only in the +Inf bucket
// and _count, their raw values stay in _sum, and the bucket counts are a
// fixed array however far past the top bound a saturated network's
// interval latencies land.
func TestHistogramClampBoundsMemory(t *testing.T) {
	r := NewRegistry()
	r.Register("lat", "help.", "histogram", func() []Sample {
		// Observed 5, 50 and 12 345 678 against bounds 10 and 100.
		return Buckets("lat", []int{10, 100}, []int64{1, 1, 1}, 12_345_733)
	})
	want := "# HELP lat help.\n# TYPE lat histogram\n" +
		`lat_bucket{le="10"} 1` + "\n" +
		`lat_bucket{le="100"} 2` + "\n" +
		`lat_bucket{le="+Inf"} 3` + "\n" +
		"lat_sum 12345733\nlat_count 3\n"
	if page := render(t, r); page != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", page, want)
	}
}

// TestRegistryRendering covers the family page: registration order, HELP
// and TYPE headers, integral and fractional values, a family with no
// samples, and re-registration replacing a family in place.
func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	r.Register("c_total", "a counter.", "counter", func() []Sample {
		return []Sample{{Name: "c_total", Value: 3}}
	})
	r.Register("g", "a gauge.", "gauge", func() []Sample {
		return []Sample{{Name: "g", Value: 1}}
	})
	r.Register("w", "labeled.", "gauge", func() []Sample {
		return []Sample{{Name: `w{id="1"}`, Value: 7}, {Name: `w{id="2"}`, Value: 0.5}}
	})
	r.Register("empty", "", "gauge", func() []Sample { return nil })
	r.Register("g", "a gauge.", "gauge", func() []Sample {
		return []Sample{{Name: "g", Value: -2.5}}
	})
	want := "# HELP c_total a counter.\n# TYPE c_total counter\nc_total 3\n" +
		"# HELP g a gauge.\n# TYPE g gauge\ng -2.5\n" +
		"# HELP w labeled.\n# TYPE w gauge\n" + `w{id="1"} 7` + "\n" + `w{id="2"} 0.5` + "\n" +
		"# TYPE empty gauge\n"
	if page := render(t, r); page != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", page, want)
	}
}
