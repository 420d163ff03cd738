package netsim

import (
	"repro/internal/stats"
)

// Results aggregates the metrics of one simulation window.
type Results struct {
	Nodes  int
	Cycles int64

	Injected       int64 // packets offered to source queues
	Delivered      int64 // packets fully ejected
	Dropped        int64 // packets dropped as unroutable (reconfig windows)
	Escaped        int64 // escape-subnetwork diversions (deadlock pressure)
	FlitsDelivered int64
	FlitHops       int64 // total flit link traversals (energy proxy)
	InFlight       int   // flits still inside at snapshot time

	LatencySum       float64
	LatencyHist      stats.Histogram // packet latency in cycles
	HopHist          stats.Histogram // per-packet hop counts
	MinInjectLatency int64
	Deadlocked       bool
}

// AvgLatencyCycles returns the mean packet latency in cycles.
func (r Results) AvgLatencyCycles() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return r.LatencySum / float64(r.Delivered)
}

// AvgLatencyNs returns the mean packet latency in nanoseconds at the 312.5
// MHz network clock.
func (r Results) AvgLatencyNs() float64 { return r.AvgLatencyCycles() * CycleNs }

// AvgHops returns the mean hop count of delivered packets.
func (r Results) AvgHops() float64 { return r.HopHist.Mean() }

// ThroughputFlitsPerNodeCycle returns delivered flits per node per cycle.
func (r Results) ThroughputFlitsPerNodeCycle() float64 {
	if r.Cycles == 0 || r.Nodes == 0 {
		return 0
	}
	return float64(r.FlitsDelivered) / float64(r.Cycles) / float64(r.Nodes)
}

// DeliveredFraction returns delivered/injected packets for the window.
func (r Results) DeliveredFraction() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Injected)
}

// RunMeasured runs warmup cycles, clears statistics, then runs measure
// cycles and returns the measured-window results.
func (s *Sim) RunMeasured(warmup, measure int64) Results {
	s.Run(warmup)
	s.ResetStats()
	s.Run(measure)
	return s.Results()
}

// EngineStats counts the simulator's own work — what the engine did to
// produce a run's Results, not what the simulated network did. Every count
// (the phase timers, DeliverNs to RouteNs, are wall time, not counts) is a
// pure function of the configuration and seed (given a private
// RouteCache; a shared one moves the route-cache counts between its
// simulators), covers the simulator's whole life (ResetStats leaves it
// alone), and appears on no Result, Snapshot or wire message, so keeping
// it costs the results nothing.
//
// The route-cache, delivery (lane high-water included) and grant-scan
// counts are the event core's; a reference-core run leaves them zero. The
// packet, source-queue and escape counts come from transitions the two
// cores share, so they agree across cores.
type EngineStats struct {
	// RouteHits counts routing decisions served by a filled route-cache
	// entry; RouteMisses counts empty entries resolved for their own
	// (router, destination) pair; ColumnFills counts empty entries
	// resolved by filling the destination's whole column instead.
	RouteHits, RouteMisses, ColumnFills int64
	// OverThreshold counts adaptive hops that found the deterministic port
	// at or over Config.AdaptiveThreshold and evaluated every candidate.
	OverThreshold int64
	// LaneFlits and FarFlits count link deliveries out of the delivery
	// lanes and out of the far heap (flits sent onto a waking link);
	// FarHighWater is the most flits the far heap held at once, and
	// LaneHighWater the most records any one delivery lane held at once.
	LaneFlits, FarFlits, FarHighWater, LaneHighWater int64
	// PoolGrowths counts growths of the packet pool; PoolHighWater is the
	// largest number of packets in flight at once.
	PoolGrowths, PoolHighWater int64
	// SrcQGrowths counts ring growths of the source queues; SrcQHighWater
	// is the most flits any one source queue held at once.
	SrcQGrowths, SrcQHighWater int64
	// EscapeTransitions counts packets committed to the escape subnetwork.
	EscapeTransitions int64
	// EmptyCycles counts event-core cycles with no router on the worklist
	// once delivery and injection are done: nothing routes, arbitrates or
	// moves, so next-event time skipping could have jumped them.
	EmptyCycles int64
	// GrantScans counts the event core's grant scans (one per output and
	// link slot arbitrated), FailedScans those that granted nothing,
	// LiveFailedScans the failed first-slot scans whose output stayed
	// unparked because a blocked candidate's starvation counter was live,
	// and Parks the failed first-slot scans that parked their output
	// because none was. Every failed scan is exactly one of a live
	// failure, a park, or a failure at link slot 1 or later.
	GrantScans, FailedScans, LiveFailedScans, Parks int64
	// ActiveRouters sums the worklist's length over event-core cycles,
	// taken once delivery and injection are done: ActiveRouters / cycles
	// is the mean worklist occupancy.
	ActiveRouters int64
	// MDEvals counts the greediest MD evaluations the event core's routing
	// made (routing.Scratch.MDEvals): pair misses, column fills and the
	// candidate sets of over-threshold hops. Every other algorithm, and the
	// reference core, evaluates none through it.
	MDEvals int64
	// DeliverNs, InjectNs, DrainNs and RouteNs are the event core's time in
	// its four cycle phases as Config.PhaseClock reads it: link delivery,
	// injection, the source-queue drain, and route+arbitrate (which
	// interleave per router, so they are timed together). Unlike every
	// other field they are wall time, not functions of configuration and
	// seed; without a clock they stay zero, and JSON then omits them.
	DeliverNs int64 `json:",omitempty"`
	InjectNs  int64 `json:",omitempty"`
	DrainNs   int64 `json:",omitempty"`
	RouteNs   int64 `json:",omitempty"`
}

// Stats returns the engine counters accumulated since New.
func (s *Sim) Stats() EngineStats {
	st := s.st
	st.MDEvals = s.rsc.MDEvals
	return st
}
