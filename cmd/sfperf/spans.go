package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// index of the enclosing span in the recorder (-1 for a root); Op is the
// index of the benchmark op the call served (-1 outside the op loop).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps the spans of one traced run in memory. The benchmark
// drives every layer from one goroutine, so nesting is a stack: a span
// opened while another is open is its child. A nil recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
	op    int   // stamped on every span opened from now on
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), op: -1}
}

// time runs fn inside a span called name and returns fn's wall time.
func (r *recorder) time(name string, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op})
	r.open = append(r.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].StartNs = start.Sub(r.epoch).Nanoseconds()
	r.spans[id].EndNs = end.Sub(r.epoch).Nanoseconds()
	return end.Sub(start)
}

// setOp stamps the spans opened from now on with op index i.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op = i
	}
}

// selfNs returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once and a child is clipped to its parent's interval.
func selfNs(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// totals sums duration and self time by span name, in milliseconds.
type totals struct {
	ms, selfMs map[string]float64
}

func (r *recorder) totals() totals {
	t := totals{ms: map[string]float64{}, selfMs: map[string]float64{}}
	if r == nil {
		return t
	}
	self := selfNs(r.spans)
	for i, s := range r.spans {
		t.ms[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
		t.selfMs[s.Name] += float64(self[i]) / 1e6
	}
	return t
}

// spanFile is one workload's record in the -out file.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// appendSpans appends one workload's spans to path as one JSON line.
func appendSpans(path string, rec spanFile) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
