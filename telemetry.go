package stringfigure

import (
	"context"

	"repro/internal/netsim"
	"repro/internal/scenario"
)

// TelemetrySnapshot is one live interval record streamed out of a running
// session: the traffic observed since the previous snapshot (not cumulative
// totals), stamped with the run's identity. Snapshots are emitted every
// SessionConfig.TelemetryEvery network cycles, during warm-up and the
// measured window alike (compare Cycle against the config's Warmup to tell
// them apart). Attaching telemetry never perturbs simulation state: final
// Results are bit-identical with and without a sink.
//
// The field set serializes to the NDJSON schema written by
// `sfexp -telemetry` (one snapshot per line).
type TelemetrySnapshot struct {
	// Workload, Rate and Seed identify the run; Rate is 0 for closed-loop
	// (trace-driven) runs. Point is the sweep point index when the snapshot
	// was streamed out of a Sweep, -1 for standalone sessions.
	Workload string  `json:"workload"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`
	Point    int     `json:"point"`

	// Cycle is the absolute network cycle at emission; IntervalCycles is
	// the window this snapshot covers (shorter than TelemetryEvery only
	// for the first snapshot after the warm-up stats reset).
	Cycle          int64 `json:"cycle"`
	IntervalCycles int64 `json:"interval_cycles"`

	Injected      int64   `json:"injected"`
	Delivered     int64   `json:"delivered"`
	AvgLatencyNs  float64 `json:"avg_latency_ns"`
	P90LatencyNs  float64 `json:"p90_latency_ns"`
	ThroughputFPC float64 `json:"throughput_fpc"`
	Escaped       int64   `json:"escaped"`
	Dropped       int64   `json:"dropped"`

	// InFlight is the flit occupancy of the network at emission;
	// OutstandingReads is the memory-side read occupancy (trace runs only).
	InFlight         int `json:"in_flight"`
	OutstandingReads int `json:"outstanding_reads,omitempty"`

	// Flow attribution (SessionConfig.FlowBuckets > 0 only): the interval's
	// per-flow deltas and per-link/per-router utilization, zero entries
	// omitted. Trace holds the interval's sampled packet-lifecycle events
	// (SessionConfig.TraceSampleEvery > 0 only), sorted by (packet, cycle,
	// event order). All ride the dist wire and the jobsvc stream unchanged.
	Flows   []FlowSample       `json:"flows,omitempty"`
	Links   []LinkSample       `json:"links,omitempty"`
	Routers []RouterSample     `json:"routers,omitempty"`
	Trace   []PacketTraceEvent `json:"trace,omitempty"`

	// Scenario holds the scenario events (gate transitions, rate changes,
	// regenerations) the session applied since the previous snapshot, so
	// flow heatmaps and NDJSON consumers can attribute damage to its
	// cause. Empty outside scheduled runs. Rides the dist wire and the
	// jobsvc stream unchanged.
	Scenario []ScenarioEvent `json:"scenario,omitempty"`
}

// FlowSample is one (src bucket, dst bucket) flow's interval delta: the
// deliveries attributed to packets injected in the source bucket toward the
// destination bucket, with their latency and hop aggregates.
type FlowSample struct {
	SrcBucket    int     `json:"src_bucket"`
	DstBucket    int     `json:"dst_bucket"`
	Delivered    int64   `json:"delivered"`
	AvgLatencyNs float64 `json:"avg_latency_ns"`
	P90LatencyNs float64 `json:"p90_latency_ns"`
	AvgHops      float64 `json:"avg_hops"`
}

// LinkSample is one directed link's interval utilization (flits sent) —
// the heatmap primitive.
type LinkSample struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Flits int64 `json:"flits"`
}

// RouterSample is one router's interval utilization: flits forwarded
// through its crossbar (link sends and ejections).
type RouterSample struct {
	Node  int   `json:"node"`
	Flits int64 `json:"flits"`
}

// PacketTraceEvent is one sampled packet-lifecycle record: Event is one of
// "inject", "hop", "escape", "drop", "deliver"; Node is where it happened;
// LatencyNs is set on deliver/drop. Sampled packets (1 in
// SessionConfig.TraceSampleEvery by packet id) record every event, so a
// packet's full itinerary reconstructs by grouping records on Packet.
type PacketTraceEvent struct {
	Packet    int64   `json:"packet"`
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Event     string  `json:"event"`
	Cycle     int64   `json:"cycle"`
	Node      int     `json:"node"`
	Hops      int     `json:"hops,omitempty"`
	LatencyNs float64 `json:"latency_ns,omitempty"`
}

// GateEvent schedules one reconfiguration inside a running session: at the
// absolute network cycle (warm-up starts at cycle 0) the node is gated off
// or back on, mid-simulation — the transient-response scenario behind the
// paper's elasticity story. Gate events reach a session through a
// ChurnTrace scenario (SessionConfig.Scenario).
//
// Timing follows the four-step protocol (Section VI): a gate-off applies at
// its scheduled cycle, with the healing shortcut wires charged the 5 us
// link wake latency under live traffic (the latency spike); a gate-on takes
// effect one link wake latency AFTER its scheduled cycle, because the
// returning node's links must wake before its table entries revalidate.
//
// Events that apply at the same cycle form one reconfiguration epoch (a
// quadrant gated at once is one reconfiguration), and consecutive epochs
// honor the paper's minimum reconfiguration interval (Timing.MinIntervalNs,
// 100 us): an epoch scheduled closer than that to its predecessor is
// deferred to the earliest legal cycle, preserving order. An epoch deferred
// past the end of the run never fires — the starting alive mask is restored
// on exit either way.
type GateEvent = scenario.GateEvent

// WithTelemetry returns a copy of the config with a live snapshot sink
// attached: every run under the returned config emits a TelemetrySnapshot to
// sink every `every` cycles (0 keeps the config's TelemetryEvery, default
// 1000). The sink runs synchronously on the simulating goroutine; sweeps
// call it from every worker concurrently, so it must be safe for concurrent
// use. Session.RunTelemetry is the channel-based alternative for single
// runs.
func (c SessionConfig) WithTelemetry(every int64, sink func(TelemetrySnapshot)) SessionConfig {
	if every > 0 {
		c.TelemetryEvery = every
	}
	c.onTelemetry = sink
	return c
}

// RunTelemetry executes the workload like RunContext while streaming
// interval snapshots: the first channel carries one TelemetrySnapshot per
// TelemetryEvery cycles and closes when the run ends; the second carries the
// final Result (with Err set instead of a separate error return, as in
// Sweep) and is buffered, so `for snap := range snaps { ... }; res := <-done`
// is the canonical consumption order. Drain the snapshot channel — or cancel
// ctx — or the run stalls on the backpressured stream.
//
// Telemetry is observational: the final Result is bit-identical to a plain
// RunContext of the same session.
func (s *Session) RunTelemetry(ctx context.Context, w Workload) (<-chan TelemetrySnapshot, <-chan Result) {
	snaps := make(chan TelemetrySnapshot, 16)
	done := make(chan Result, 1)
	cfg := s.cfg
	prev := cfg.onTelemetry
	cfg.onTelemetry = func(t TelemetrySnapshot) {
		if prev != nil {
			prev(t)
		}
		select {
		case snaps <- t:
		case <-ctx.Done():
		}
	}
	sess := &Session{net: s.net, cfg: cfg}
	go func() {
		defer close(done)
		res, err := sess.RunContext(ctx, w)
		if err != nil {
			res = Result{Workload: w.Name(), Seed: cfg.Seed, Err: err}
			if _, closedLoop := w.(TraceWorkload); !closedLoop {
				res.Rate = cfg.Rate
			}
		}
		close(snaps)
		done <- res
	}()
	return snaps, done
}

// telemetryOf lifts a simulator interval snapshot into the public record
// (cycles become nanoseconds at the 312.5 MHz network clock). Point is -1
// until a sweep stamps its index.
func telemetryOf(ns netsim.Snapshot, rate float64) TelemetrySnapshot {
	t := TelemetrySnapshot{
		Rate:           rate,
		Point:          -1,
		Cycle:          ns.Cycle,
		IntervalCycles: ns.IntervalCycles,
		Injected:       ns.Injected,
		Delivered:      ns.Delivered,
		AvgLatencyNs:   ns.AvgLatencyCycles * netsim.CycleNs,
		P90LatencyNs:   float64(ns.P90LatencyCycles) * netsim.CycleNs,
		ThroughputFPC:  ns.ThroughputFPC,
		Escaped:        ns.Escaped,
		Dropped:        ns.Dropped,
		InFlight:       ns.InFlight,
	}
	if len(ns.Flows) > 0 {
		t.Flows = make([]FlowSample, len(ns.Flows))
		for i, f := range ns.Flows {
			t.Flows[i] = FlowSample{
				SrcBucket:    f.SrcBucket,
				DstBucket:    f.DstBucket,
				Delivered:    f.Delivered,
				AvgLatencyNs: f.AvgLatencyCycles * netsim.CycleNs,
				P90LatencyNs: float64(f.P90LatencyCycles) * netsim.CycleNs,
				AvgHops:      f.AvgHops,
			}
		}
	}
	if len(ns.Links) > 0 {
		t.Links = make([]LinkSample, len(ns.Links))
		for i, l := range ns.Links {
			t.Links[i] = LinkSample{From: l.From, To: l.To, Flits: l.Flits}
		}
	}
	if len(ns.Routers) > 0 {
		t.Routers = make([]RouterSample, len(ns.Routers))
		for i, r := range ns.Routers {
			t.Routers[i] = RouterSample{Node: r.Node, Flits: r.Flits}
		}
	}
	if len(ns.Trace) > 0 {
		t.Trace = make([]PacketTraceEvent, len(ns.Trace))
		for i, tr := range ns.Trace {
			t.Trace[i] = PacketTraceEvent{
				Packet:    tr.Packet,
				Src:       tr.Src,
				Dst:       tr.Dst,
				Event:     tr.Kind.String(),
				Cycle:     tr.Cycle,
				Node:      tr.Node,
				Hops:      tr.Hops,
				LatencyNs: float64(tr.Latency) * netsim.CycleNs,
			}
		}
	}
	return t
}

// wireTelemetry connects a session's telemetry sink (if any) to a simulator
// configuration. occupancy, when non-nil, supplies the memory-side
// outstanding-read count for trace runs.
func wireTelemetry(simCfg *netsim.Config, cfg SessionConfig, rate float64, occupancy func() int) {
	if cfg.onTelemetry == nil || cfg.TelemetryEvery <= 0 {
		return
	}
	sink := cfg.onTelemetry
	simCfg.SnapshotEvery = cfg.TelemetryEvery
	simCfg.FlowBuckets = cfg.FlowBuckets
	simCfg.TraceSampleEvery = cfg.TraceSampleEvery
	simCfg.OnSnapshot = func(ns netsim.Snapshot) {
		t := telemetryOf(ns, rate)
		if occupancy != nil {
			t.OutstandingReads = occupancy()
		}
		sink(t)
	}
}
