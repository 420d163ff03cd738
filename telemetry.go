package stringfigure

import (
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
// The simulator owns the record (it is netsim.Snapshot): it fills the
// interval fields in nanoseconds, and the session stamps Workload, Rate,
// Seed, Point (the sweep point index, -1 for standalone sessions),
// OutstandingReads (trace runs) and the applied Scenario events. Flows,
// Links and Routers carry flow attribution (SessionConfig.FlowBuckets > 0);
// Trace carries sampled packet-lifecycle events
// (SessionConfig.TraceSampleEvery > 0). The field set serializes to the
// NDJSON schema written by `sfexp -telemetry` (one snapshot per line) and
// rides the dist wire and the jobsvc stream unchanged.
type TelemetrySnapshot = netsim.Snapshot

// FlowSample is one (src bucket, dst bucket) flow's interval delta: the
// deliveries attributed to packets injected in the source bucket toward the
// destination bucket, with their latency and hop aggregates.
type FlowSample = netsim.FlowSample

// LinkSample is one directed link's interval utilization (flits sent) —
// the heatmap primitive.
type LinkSample = netsim.LinkSample

// RouterSample is one router's interval utilization: flits forwarded
// through its crossbar (link sends and ejections).
type RouterSample = netsim.RouterSample

// PacketTraceEvent is one sampled packet-lifecycle record: Event is one of
// "inject", "hop", "escape", "drop", "deliver"; Node is where it happened;
// LatencyNs is set on deliver/drop. Sampled packets (1 in
// SessionConfig.TraceSampleEvery by packet id) record every event, so a
// packet's full itinerary reconstructs by grouping records on Packet.
type PacketTraceEvent = netsim.PacketTraceEvent

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
// past the end of the run never fires. Events apply to the session's own
// copy of the network's reconfiguration state, so the Network the session
// runs on keeps its alive mask and routing tables whatever the run does.
type GateEvent = scenario.GateEvent

// WithTelemetry returns a copy of the config with a live snapshot sink
// attached: every run under the returned config emits a TelemetrySnapshot to
// sink every `every` cycles (0 keeps the config's TelemetryEvery, default
// 1000). Sinks compose: a sink already attached keeps receiving every
// snapshot and runs first, so `cfg.WithTelemetry(0, m.Observe)` adds a
// metrics server beside an NDJSON writer. Sinks run synchronously on the
// simulating goroutine; sweeps call them from every worker concurrently,
// so they must be safe for concurrent use. A nil sink adds nothing.
func (c SessionConfig) WithTelemetry(every int64, sink func(TelemetrySnapshot)) SessionConfig {
	if every > 0 {
		c.TelemetryEvery = every
	}
	switch prev := c.onTelemetry; {
	case sink == nil:
	case prev == nil:
		c.onTelemetry = sink
	default:
		c.onTelemetry = func(t TelemetrySnapshot) {
			prev(t)
			sink(t)
		}
	}
	return c
}

// wireTelemetry connects a session's telemetry sink (if any) to a simulator
// configuration, stamping the rate and the standalone point index (a sweep
// restamps it). occupancy, when non-nil, supplies the memory-side
// outstanding-read count for trace runs.
func wireTelemetry(simCfg *netsim.Config, cfg SessionConfig, rate float64, occupancy func() int) {
	if cfg.onTelemetry == nil || cfg.TelemetryEvery <= 0 {
		return
	}
	sink := cfg.onTelemetry
	simCfg.SnapshotEvery = cfg.TelemetryEvery
	simCfg.FlowBuckets = cfg.FlowBuckets
	simCfg.TraceSampleEvery = cfg.TraceSampleEvery
	simCfg.OnSnapshot = func(t netsim.Snapshot) {
		t.Rate, t.Point = rate, -1
		if occupancy != nil {
			t.OutstandingReads = occupancy()
		}
		sink(t)
	}
}
