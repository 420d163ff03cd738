package netsim

import (
	"sort"

	"repro/internal/stats"
)

// Flow-level attribution: per-(src bucket, dst bucket) latency/hop
// histograms, per-link and per-router utilization counters, and sampled
// packet-lifecycle traces. Everything here is observational — the
// accounting reads packet fields the simulation already computed and never
// touches the RNG or any arbitration state — so enabling it leaves Results
// and Snapshots bit-identical, on both cores. Counters are interval-local:
// each Snapshot emission drains them and zeroes in place, so steady-state
// accounting costs O(buckets touched) per interval with no baseline clones.

// TraceKind is the lifecycle stage of one sampled trace event. The numeric
// order matches the per-packet phase order within one cycle (a hop lands in
// the deliver phase, escape/drop happen in the route pass, ejection in
// arbitration), so sorting records by (Packet, Cycle, Kind) yields the same
// sequence from both simulation cores even though they visit routers in
// different orders.
type TraceKind uint8

const (
	// TraceInject marks the packet entering the network at its source.
	TraceInject TraceKind = iota
	// TraceHop marks the packet's head flit arriving at a router.
	TraceHop
	// TraceEscape marks the packet transitioning onto the escape
	// subnetwork (deadlock avoidance demoted it from adaptive routing).
	TraceEscape
	// TraceDrop marks the packet dropped at a router with no route left
	// (reconfiguration removed its destination or every viable path).
	TraceDrop
	// TraceDeliver marks the packet's delivery at its destination.
	TraceDeliver
)

// String returns the NDJSON event name.
func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceHop:
		return "hop"
	case TraceEscape:
		return "escape"
	case TraceDrop:
		return "drop"
	case TraceDeliver:
		return "deliver"
	}
	return "unknown"
}

// traceRecord is one buffered sampled packet-lifecycle event. Hops is the
// hop count completed at the event; latency is set on deliver/drop (cycles
// since injection, inclusive).
type traceRecord struct {
	packet  int64
	src     int
	dst     int
	kind    TraceKind
	cycle   int64
	node    int
	hops    int
	latency int64
}

// PacketTraceEvent is one sampled packet-lifecycle record: Event is one of
// "inject", "hop", "escape", "drop", "deliver" (TraceKind.String); Node is
// where it happened; LatencyNs is set on deliver/drop. Sampled packets (1 in
// Config.TraceSampleEvery by packet id) record every event, so a packet's
// full itinerary reconstructs by grouping records on Packet.
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

// FlowSample is one (src bucket, dst bucket) flow's interval delta: the
// deliveries attributed to packets injected in the source bucket toward the
// destination bucket (nodes folded into Config.FlowBuckets groups), with
// their latency and hop aggregates.
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

// flowCell accumulates one (src bucket, dst bucket) flow over the current
// interval. The histograms live in a shared arena (see newFlowAcct).
type flowCell struct {
	delivered int64
	latency   stats.Histogram
	hops      stats.Histogram
}

// Arena reserve per flow cell: interval latencies rarely exceed these bucket
// counts, so the steady state stays inside the pre-carved arena; a cell that
// outgrows its reserve falls back to append (amortized, once per high-water
// mark). Large bucket grids shrink the reserve to bound the quadratic arena.
const (
	flowLatReserve      = 256
	flowHopReserve      = 32
	flowLatReserveSmall = 32
	flowHopReserveSmall = 8
)

// flowAcct is the per-flow/link/router accounting state, allocated once in
// New when Config.FlowBuckets > 0.
type flowAcct struct {
	buckets int
	nodes   int
	cells   []flowCell // buckets², src-major
	links   []int64    // per global link id
	rtrs    []int64    // per router
}

func newFlowAcct(buckets, nodes, links int) *flowAcct {
	if buckets > nodes {
		buckets = nodes
	}
	if buckets < 1 {
		buckets = 1
	}
	latRes, hopRes := flowLatReserve, flowHopReserve
	if buckets > 64 {
		latRes, hopRes = flowLatReserveSmall, flowHopReserveSmall
	}
	fa := &flowAcct{
		buckets: buckets,
		nodes:   nodes,
		cells:   make([]flowCell, buckets*buckets),
		links:   make([]int64, links),
		rtrs:    make([]int64, nodes),
	}
	arena := make([]int64, buckets*buckets*(latRes+hopRes))
	for i := range fa.cells {
		c := &fa.cells[i]
		c.latency = stats.NewHistogramBuffer(arena[:latRes:latRes])
		arena = arena[latRes:]
		c.hops = stats.NewHistogramBuffer(arena[:hopRes:hopRes])
		arena = arena[hopRes:]
	}
	return fa
}

// bucketOf folds a node id into its flow bucket.
func (fa *flowAcct) bucketOf(v int) int { return v * fa.buckets / fa.nodes }

// observe books one delivered packet into its flow cell.
func (fa *flowAcct) observe(src, dst int, lat int64, hops int) {
	c := &fa.cells[fa.bucketOf(src)*fa.buckets+fa.bucketOf(dst)]
	c.delivered++
	c.latency.Observe(int(lat))
	c.hops.Observe(hops)
}

// reset zeroes every interval-local counter in place (ResetStats path).
func (fa *flowAcct) reset() {
	for i := range fa.cells {
		c := &fa.cells[i]
		if c.delivered == 0 {
			continue
		}
		c.delivered = 0
		c.latency.Reset()
		c.hops.Reset()
	}
	for i := range fa.links {
		fa.links[i] = 0
	}
	for i := range fa.rtrs {
		fa.rtrs[i] = 0
	}
}

// emitFlowSamples drains the interval's flow/link/router counters into the
// snapshot (zero cells are skipped) and zeroes them for the next interval.
// Iteration is in index order on both cores, and the per-cell aggregates are
// pure functions of the counts, so cross-core snapshots match bit for bit.
func (s *Sim) emitFlowSamples(snap *Snapshot) {
	fa := s.fl
	for i := range fa.cells {
		c := &fa.cells[i]
		if c.delivered == 0 {
			continue
		}
		snap.Flows = append(snap.Flows, FlowSample{
			SrcBucket:    i / fa.buckets,
			DstBucket:    i % fa.buckets,
			Delivered:    c.delivered,
			AvgLatencyNs: c.latency.Mean() * CycleNs,
			P90LatencyNs: float64(c.latency.Percentile(0.90)) * CycleNs,
			AvgHops:      c.hops.Mean(),
		})
		c.delivered = 0
		c.latency.Reset()
		c.hops.Reset()
	}
	for _, r := range s.routers {
		for p, w := range r.outNbr {
			l := int(r.linkBase) + p
			if flits := fa.links[l]; flits > 0 {
				snap.Links = append(snap.Links, LinkSample{From: r.id, To: w, Flits: flits})
				fa.links[l] = 0
			}
		}
	}
	for v, flits := range fa.rtrs {
		if flits == 0 {
			continue
		}
		snap.Routers = append(snap.Routers, RouterSample{Node: v, Flits: flits})
		fa.rtrs[v] = 0
	}
}

// traceAcct buffers sampled trace records between snapshot emissions. It is
// only armed when an OnSnapshot probe exists to drain it, which bounds the
// buffer at one interval's records.
type traceAcct struct {
	every int64
	buf   []traceRecord
}

// traceEvent records one lifecycle event if the packet is sampled
// (deterministic 1-in-every by packet id — no RNG, so tracing on/off leaves
// the simulation bit-identical).
func (s *Sim) traceEvent(p *packet, kind TraceKind, node int) {
	t := s.tr
	if p.id%t.every != 0 {
		return
	}
	rec := traceRecord{
		packet: p.id, src: p.src, dst: p.dst,
		kind: kind, cycle: s.cycle, node: node, hops: p.hops,
	}
	if kind == TraceDeliver || kind == TraceDrop {
		rec.latency = s.cycle - p.injected + 1
	}
	if len(t.buf) == cap(t.buf) {
		t.grow()
	}
	t.buf = append(t.buf, rec)
}

// grow doubles the trace buffer. Like ring.grow, it is a separate never
// inlined function: growth stops at the interval high-water mark, keeping
// the recording path itself allocation-free for the escape-analysis gate.
//
//go:noinline
func (t *traceAcct) grow() {
	size := cap(t.buf) * 2
	if size == 0 {
		size = 256
	}
	nb := make([]traceRecord, len(t.buf), size)
	copy(nb, t.buf)
	t.buf = nb
}

// emitTrace flushes the interval's sampled records into the snapshot,
// sorted by (packet, cycle, kind). The two cores append records in
// different orders — the event core delivers in lane order, the
// reference core in router scan order — but the record *set* is identical
// and the sort key is unique per record (a packet reaches at most one
// lifecycle stage of each kind per cycle), so the sorted sequence is part
// of the cross-core determinism contract.
func (s *Sim) emitTrace(snap *Snapshot) {
	t := s.tr
	if len(t.buf) == 0 {
		return
	}
	sort.Slice(t.buf, func(i, j int) bool {
		a, b := &t.buf[i], &t.buf[j]
		if a.packet != b.packet {
			return a.packet < b.packet
		}
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		return a.kind < b.kind
	})
	snap.Trace = make([]PacketTraceEvent, len(t.buf))
	for i, r := range t.buf {
		snap.Trace[i] = PacketTraceEvent{
			Packet: r.packet, Src: r.src, Dst: r.dst, Event: r.kind.String(),
			Cycle: r.cycle, Node: r.node, Hops: r.hops,
			LatencyNs: float64(r.latency) * CycleNs,
		}
	}
	t.buf = t.buf[:0]
}
