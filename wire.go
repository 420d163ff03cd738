package stringfigure

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"repro/internal/design"
)

// This file is the payload codec of distributed sweep execution: what
// travels between the coordinator (a cluster-attached Network.Sweep) and remote
// workers (ServeWorker / cmd/sfworker) inside internal/dist frames.
// Everything is plain gob of exported fields, so local and remote runs
// see bit-identical float64 values. SessionConfig, design.Spec, Result
// and TelemetrySnapshot cross as themselves; only what gob cannot carry
// has a wire form here (a Point's Workload interface, a Result's error).
// TestWireRoundTripByReflection is the contract: it fills every exported
// field of what travels and fails, naming the field, for any that comes
// back zeroed — so an exported func or interface field is caught there,
// and an unexported field is the sanctioned way to keep a value off the
// wire (gob skips it, as it does SessionConfig.onTelemetry).

// networkSpec is everything a worker needs to rebuild a Network: the
// design's build spec plus the alive mask of the coordinator's network at
// sweep time. Design builds are pure functions of the spec (equal specs
// build identical designs), so rebuilding remotely reproduces the
// coordinator's topology exactly; a gated network is reproduced via
// SetMounted with the snapshotted mask.
type networkSpec struct {
	design.Spec
	Alive []bool // nil when every node is powered on
}

// spec snapshots the network's rebuild inputs.
func (n *Network) spec() networkSpec {
	s := networkSpec{Spec: n.d.Spec}
	if alive := n.cur.Load().alive; slices.Contains(alive, false) {
		s.Alive = slices.Clone(alive)
	}
	return s
}

// build deploys the spec into a fresh Network with cluster c attached.
func (s networkSpec) build(c *Cluster) (*Network, error) {
	net, err := options{spec: s.Spec, cluster: c}.build()
	if err != nil {
		return nil, err
	}
	if s.Alive != nil {
		if err := net.SetMounted(s.Alive); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// netKey is everything a stored network is built from, in comparable
// form: the New options, their spec in normal form, and the alive mask
// ('1' per powered-on node, "" when every node is). The normal form makes
// a Service job's spec as submitted ({"nodes":16}: no design, no port
// count) and a worker's as the coordinator normalized it (sf, 4 ports) one
// key; a spec that does not normalize is keyed as it is, and its build
// fails.
type netKey struct {
	options
	alive string
}

func (s networkSpec) key(c *Cluster) netKey {
	if spec, err := s.Spec.Normalize(); err == nil {
		s.Spec = spec
	}
	mask := make([]byte, len(s.Alive))
	for i, a := range s.Alive {
		mask[i] = '0'
		if a {
			mask[i] = '1'
		}
	}
	return netKey{options: options{spec: s.Spec, cluster: c}, alive: string(mask)}
}

// Wire workload kinds. FuncWorkload carries arbitrary Go functions and
// cannot travel; a sweep runs such points in-process instead.
const (
	wireSynthetic = "synthetic"
	wireTrace     = "trace"
)

// wirePoint is a Point in serializable form.
type wirePoint struct {
	Kind string
	Name string
	Rate float64
	Seed int64
}

// pointToWire converts a sweep point for transport. ok is false for
// workloads that cannot be serialized (FuncWorkload and external
// implementations), which the coordinator keeps in-process.
func pointToWire(p Point) (wirePoint, bool) {
	switch w := p.Workload.(type) {
	case SyntheticWorkload:
		return wirePoint{Kind: wireSynthetic, Name: w.Pattern, Rate: p.Rate, Seed: p.Seed}, true
	case TraceWorkload:
		return wirePoint{Kind: wireTrace, Name: w.Workload, Rate: p.Rate, Seed: p.Seed}, true
	}
	return wirePoint{}, false
}

// point reconstructs the sweep point on the worker.
func (wp wirePoint) point() (Point, error) {
	switch wp.Kind {
	case wireSynthetic:
		return Point{Workload: SyntheticWorkload{Pattern: wp.Name}, Rate: wp.Rate, Seed: wp.Seed}, nil
	case wireTrace:
		return Point{Workload: TraceWorkload{Workload: wp.Name}, Rate: wp.Rate, Seed: wp.Seed}, nil
	}
	return Point{}, fmt.Errorf("stringfigure: unknown wire workload kind %q", wp.Kind)
}

// wireJob is one dispatched sweep point: the network to rebuild, the
// sweep's base session config, and the point with its global index (the
// PointSeed input, so remote seeds match the in-process pool exactly).
// Telemetry asks the worker to stream the point's interval snapshots back
// over the wire — the sink itself is a Go function and cannot travel, so
// the flag stands in for it (the worker attaches its own batching sink,
// which is determinism-neutral: Results are bit-identical either way).
type wireJob struct {
	Spec      networkSpec
	Cfg       SessionConfig
	Index     int
	Point     wirePoint
	Telemetry bool
}

// wireSnapshotBatch is the payload of one dist snapshot frame: a batch of
// consecutive interval records of a single sweep point, already stamped
// with the run's identity (workload, rate, seed, point index) by the
// worker's session layer. Workers flush a batch every snapshotBatchMax
// intervals and once more when the point's run ends, so batching bounds
// per-snapshot wire overhead without reordering or dropping records.
type wireSnapshotBatch struct {
	Snaps []TelemetrySnapshot
}

// snapshotBatchMax caps how many interval records ride in one snapshot
// frame. Small enough to keep remote streams live (a batch at the default
// 1000-cycle interval spans 16k simulated cycles), large enough that the
// frame overhead stays negligible next to the simulation work.
const snapshotBatchMax = 16

// wireResult is a Result in serializable form: the Err field (an
// interface, excluded from transport) travels as text. Well-known
// context errors are restored as their canonical values so errors.Is
// keeps working across the wire; other errors arrive as opaque strings.
type wireResult struct {
	Res    Result
	ErrMsg string
}

func resultToWire(r Result) wireResult {
	wr := wireResult{Res: r}
	if r.Err != nil {
		wr.ErrMsg = r.Err.Error()
		wr.Res.Err = nil
	}
	return wr
}

func (wr wireResult) result() Result {
	r := wr.Res
	switch wr.ErrMsg {
	case "":
	case context.Canceled.Error():
		r.Err = context.Canceled
	case context.DeadlineExceeded.Error():
		r.Err = context.DeadlineExceeded
	default:
		r.Err = errors.New(wr.ErrMsg)
	}
	return r
}

// encodeWire gob-encodes one wire value.
func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeWire gob-decodes one wire value.
func decodeWire(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
