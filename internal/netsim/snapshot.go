package netsim

import (
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Snapshot is one interval telemetry record: the traffic observed since the
// previous snapshot (or since the last ResetStats), not cumulative totals.
// Emission reads accumulated counters only — it cannot perturb simulation
// state or determinism. The root package's TelemetrySnapshot is an alias of
// this type: the simulator fills the interval fields in nanoseconds, and the
// session layer stamps the run identity (Workload, Rate, Seed, Point),
// OutstandingReads and Scenario. The field set is the NDJSON schema written
// by `sfexp -telemetry`.
type Snapshot struct {
	// Workload, Rate and Seed identify the run; Rate is 0 for closed-loop
	// (trace-driven) runs. Point is the sweep point index when the snapshot
	// was streamed out of a Sweep, -1 for standalone sessions.
	Workload string  `json:"workload"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`
	Point    int     `json:"point"`

	// Cycle is the absolute network cycle at emission; IntervalCycles is
	// the window this snapshot covers (shorter than SnapshotEvery only for
	// the first snapshot after a mid-interval ResetStats).
	Cycle          int64 `json:"cycle"`
	IntervalCycles int64 `json:"interval_cycles"`

	Injected      int64   `json:"injected"`       // packets offered to source queues
	Delivered     int64   `json:"delivered"`      // packets fully ejected
	AvgLatencyNs  float64 `json:"avg_latency_ns"` // mean over the interval's deliveries
	P90LatencyNs  float64 `json:"p90_latency_ns"` // P90 over the interval's deliveries
	ThroughputFPC float64 `json:"throughput_fpc"` // delivered flits per node per cycle
	Escaped       int64   `json:"escaped"`        // escape-subnetwork diversions
	Dropped       int64   `json:"dropped"`        // packets dropped as unroutable

	// InFlight is the flit occupancy of the network at emission;
	// OutstandingReads is the memory-side read occupancy (trace runs only).
	InFlight         int `json:"in_flight"`
	OutstandingReads int `json:"outstanding_reads,omitempty"`

	// Flow attribution (Config.FlowBuckets > 0 only): the interval's
	// per-flow deltas and per-link/per-router utilization, zero entries
	// omitted (see flow.go). Trace holds the interval's sampled
	// packet-lifecycle events (Config.TraceSampleEvery > 0 only), sorted by
	// (packet, cycle, event order).
	Flows   []FlowSample       `json:"flows,omitempty"`
	Links   []LinkSample       `json:"links,omitempty"`
	Routers []RouterSample     `json:"routers,omitempty"`
	Trace   []PacketTraceEvent `json:"trace,omitempty"`

	// Scenario holds the scenario events (gate transitions, rate changes,
	// regenerations) the session applied since the previous snapshot.
	Scenario []scenario.Event `json:"scenario,omitempty"`
}

// snapBase is the counter baseline of the current interval.
type snapBase struct {
	cycle          int64
	injected       int64
	delivered      int64
	flitsDelivered int64
	escaped        int64
	dropped        int64
	latencySum     float64
	latencyHist    stats.Histogram
}

// emitSnapshot publishes the interval since snapBase and advances it.
func (s *Sim) emitSnapshot() {
	b := &s.snapBase
	snap := Snapshot{
		Cycle:          s.cycle,
		IntervalCycles: s.cycle - b.cycle,
		Injected:       s.res.Injected - b.injected,
		Delivered:      s.res.Delivered - b.delivered,
		Escaped:        s.res.Escaped - b.escaped,
		Dropped:        s.res.Dropped - b.dropped,
		InFlight:       s.inFlight(),
	}
	if snap.Delivered > 0 {
		snap.AvgLatencyNs = (s.res.LatencySum - b.latencySum) / float64(snap.Delivered) * CycleNs
		delta := s.res.LatencyHist.DeltaSince(&b.latencyHist)
		snap.P90LatencyNs = float64(delta.Percentile(0.90)) * CycleNs
	}
	if snap.IntervalCycles > 0 && len(s.routers) > 0 {
		snap.ThroughputFPC = float64(s.res.FlitsDelivered-b.flitsDelivered) /
			float64(snap.IntervalCycles) / float64(len(s.routers))
	}
	if s.fl != nil {
		s.emitFlowSamples(&snap)
	}
	if s.tr != nil {
		s.emitTrace(&snap)
	}
	s.snapBase = snapBase{
		cycle:          s.cycle,
		injected:       s.res.Injected,
		delivered:      s.res.Delivered,
		flitsDelivered: s.res.FlitsDelivered,
		escaped:        s.res.Escaped,
		dropped:        s.res.Dropped,
		latencySum:     s.res.LatencySum,
		latencyHist:    s.res.LatencyHist.Clone(),
	}
	s.cfg.OnSnapshot(snap)
}
