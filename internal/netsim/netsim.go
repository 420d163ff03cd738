package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/routing"
)

// AdaptiveMode selects where load-adaptive output selection applies.
type AdaptiveMode int

const (
	// AdaptiveOff always follows the deterministic first candidate.
	AdaptiveOff AdaptiveMode = iota
	// AdaptiveFirstHop diverts only the first hop (String Figure policy,
	// Section III-B).
	AdaptiveFirstHop
	// AdaptiveEveryHop picks the least-loaded minimal candidate at every
	// hop (the mesh and flattened-butterfly baselines).
	AdaptiveEveryHop
)

// Config parameterizes one simulation.
type Config struct {
	// Out is the router-level out-adjacency; ports are its distinct targets.
	Out [][]int
	// Alg supplies candidate next hops for the adaptive channels.
	Alg routing.Algorithm
	// VCPolicy picks the packet's adaptive virtual channel (an index into
	// the adaptive VC range) at injection; nil round-robins.
	VCPolicy func(src, dst int) int
	// EscapeVCs is the number of reserved escape channels (default 1; the
	// String Figure ring escape needs 2 for its dateline). Every router
	// carries adaptiveVCs more above them.
	EscapeVCs int
	// EscapeRoute returns the escape next hop and escape VC (0-based
	// within the escape range) from cur toward dst. nil falls back to the
	// algorithm's deterministic first candidate on escape VC 0 — only
	// sound when that first candidate is itself deadlock-free (XY meshes,
	// dimension-ordered butterflies).
	EscapeRoute func(cur, dst int) (next int, escVC int)
	// LinkWidth is the flit bandwidth of each link per cycle (default 1).
	// The optimized distributed mesh (ODM) uses it to model the widened
	// channels that match String Figure's bisection bandwidth.
	LinkWidth int
	// PacketFlits is the packet size in flits (header + payload).
	PacketFlits int
	// LinkLatency returns the base cycle count for traversing link u->v,
	// including SerDes (at least 1); nil means DefaultLinkLatency
	// everywhere. New reads it once per link, and the event core gives each
	// distinct value one delivery lane; a waking link's extra cost is a
	// deadline (Sim.SetLinkWake).
	LinkLatency func(u, v int) int
	// Adaptive selects the adaptive-routing policy.
	Adaptive AdaptiveMode
	// AdaptiveThreshold is the queue-occupancy fraction above which the
	// deterministic port is abandoned for a lighter one (paper: 0.5).
	AdaptiveThreshold float64
	// OnDelivered, when set, is called as each packet's tail flit ejects:
	// closed-loop clients (the memory system co-simulation) use it to
	// couple requests with responses. Callbacks run inside Run.
	OnDelivered func(src, dst int, tag int64)
	// SnapshotEvery emits an interval Snapshot to OnSnapshot every this
	// many cycles (0 disables the probe). Emission only reads accumulated
	// counters — it never touches the RNG or any simulation state, so
	// attaching the probe leaves results bit-identical.
	SnapshotEvery int64
	// OnSnapshot receives interval snapshots; callbacks run inside Run.
	OnSnapshot func(Snapshot)
	// FlowBuckets enables per-flow attribution: nodes fold into this many
	// src/dst buckets (clamped to the node count) and every delivery lands
	// in its (src bucket, dst bucket) latency+hop histograms, emitted as
	// interval deltas on each Snapshot together with per-link and
	// per-router utilization counters. 0 disables. The accounting is
	// observational — it reads packet fields the simulation already
	// computed and never touches the RNG — so results stay bit-identical
	// with it on or off.
	FlowBuckets int
	// TraceSampleEvery samples packet-lifecycle traces: packets whose id
	// divides by this value record inject/hop/escape/drop/deliver events,
	// flushed into Snapshot.Trace sorted by (packet, cycle, kind).
	// Sampling keys on the deterministic packet id — no RNG — so tracing
	// on/off leaves results bit-identical. 0 disables; tracing needs an
	// OnSnapshot probe to drain the buffer and is otherwise ignored.
	TraceSampleEvery int64
	// ReferenceCore selects the full-scan simulation core (reference.go):
	// every router is visited every cycle, candidate next hops come from
	// the allocating routing.Algorithm.Candidates path with no route cache,
	// and occupancy is counted by walking every queue. It is the
	// seed-equivalent slow path kept for differential testing — the
	// cross-core determinism suite byte-diffs its Results and Snapshots
	// against the event-driven core, which must match bit for bit. The
	// core is chosen once, in step; the two share every state transition
	// and own only their scans.
	ReferenceCore bool
	// Routes, when set, is a route cache shared with other simulators built
	// over the same Alg and Out (see RouteCache); nil gives the simulator a
	// private one. Results are identical either way. The caller keeps Alg's
	// tables and Out unchanged for as long as any simulator runs on it.
	Routes *RouteCache
	// PhaseClock, when set, times the event core's four cycle phases into
	// EngineStats (DeliverNs, InjectNs, DrainNs, RouteNs): step reads it
	// once before delivery and once after each phase, and charges each
	// phase the difference. It must return monotonic nanoseconds, such as
	// time.Since of a fixed instant. The clock is only read, so results are
	// identical with it set or nil; nil (the default) costs one branch per
	// phase per cycle.
	PhaseClock func() int64
	// Seed drives injection randomness.
	Seed int64
}

// DefaultLinkLatency is the per-hop latency in cycles: one cycle of wire/
// switch traversal plus one cycle of SerDes (3.2 ns at the 312.5 MHz HMC
// network clock, Table I).
const DefaultLinkLatency = 2

// CycleNs is the network clock period in nanoseconds (312.5 MHz).
const CycleNs = 3.2

// Router microarchitecture shared by every design: the paper's two adaptive
// virtual channels above the escape channels, 8-flit input buffers per VC,
// and the consecutive blocked cycles a routed adaptive head flit tolerates
// before diverting to the escape subnetwork.
const (
	adaptiveVCs    = 2
	bufFlits       = 8
	escapePatience = 64
)

func (c *Config) fill() error {
	if len(c.Out) < 2 {
		return fmt.Errorf("netsim: need at least 2 routers")
	}
	if c.Alg == nil {
		return fmt.Errorf("netsim: routing algorithm required")
	}
	if c.EscapeVCs <= 0 {
		c.EscapeVCs = 1
	}
	if c.LinkWidth <= 0 {
		c.LinkWidth = 1
	}
	if c.PacketFlits <= 0 {
		c.PacketFlits = 5 // 64B line + header over 128-bit flits
	}
	if c.AdaptiveThreshold <= 0 {
		c.AdaptiveThreshold = 0.5
	}
	return nil
}

// Seed capacities, so that a session started cold — the regime every sweep
// point runs in — reaches its working set without a burst of small
// allocations: the packet pool's first slab (see growPool), and each
// router's source queue, carved from one arena at New (a ring, so a power
// of two). A packet handle is its slab's index shifted past slabBits, plus
// its slot in the slab, so no slab outgrows poolSlabMax.
const (
	poolSeed    = 64
	slabBits    = 12
	poolSlabMax = 1 << slabBits
	srcQSeed    = 8
)

// packet is one in-flight packet. Packets live in the Sim's packet slabs
// and are named by handle (see Sim.pkt); a packet's handle returns to the
// free list when its last flit retires (ejects or is purged), so
// steady-state injection allocates nothing.
type packet struct {
	id       int64
	tag      int64 // caller-supplied correlation tag (closed-loop clients)
	src, dst int
	advc     int // assigned adaptive VC
	size     int
	left     int // flits not yet retired; 0 returns the packet to the pool
	injected int64
	// hops counts the links the head flit has crossed. It is counted as
	// the head lands (deliverFlit), where the head's router — every reader
	// of hops runs there — next looks at the packet anyway.
	hops int
	// escaped commits the packet to the escape subnetwork. Commitment is
	// permanent: re-entering the adaptive channels would create indirect
	// escape->adaptive->escape dependencies that defeat the dateline
	// ordering (adaptive hops can move a packet backwards along the ring),
	// reintroducing deadlock.
	escaped bool
}

// flit is one flow-control unit: its packet's handle (see Sim.pkt), the virtual channel of the buffer it currently occupies
// (escape packets change VC hop by hop) and its place in the packet. It is
// 8 bytes and holds no pointer, so the buffers that carry flits are
// invisible to the garbage collector.
type flit struct {
	pkt  int32
	vc   uint8
	head bool
	tail bool
}

// inputUnit is one (input port, VC) buffer with its current route state.
// The buffer is inline: credit-based flow control never admits more than
// bufFlits flits into a unit (the upstream output spends a credit per flit
// sent and gets it back only when the flit leaves), so a fixed ring of that
// size is exact, and a push onto a full unit is a protocol bug, not a
// reason to grow. The route state comes first, so it shares a cache line
// with the front of the ring; the whole unit is 84 bytes.
type inputUnit struct {
	head, n uint8 // ring cursor and occupancy of buf
	route   int32 // assigned output port, -1 when the head packet is unrouted
	outVC   int32 // VC on the next link, set with route
	blocked int32 // consecutive cycles the routed head flit failed to move
	// upOvc is the Sim.ovcs index of the upstream output VC that a slot
	// freed here credits (-1 on the injection port): the credit return
	// reads no port table and no upstream router.
	upOvc int32
	buf   [bufFlits]flit
}

// The inline ring indexes by masking, so bufFlits must be a power of two.
var _ [-(bufFlits & (bufFlits - 1))]struct{}

// Len returns the number of buffered flits.
func (u *inputUnit) Len() int { return int(u.n) }

// push appends f at the tail. Credits cap a unit at bufFlits, so a push
// onto a full unit means the credit protocol was broken: it panics rather
// than corrupt the ring.
func (u *inputUnit) push(f flit) {
	if u.n == bufFlits {
		creditViolation()
	}
	u.buf[(u.head+u.n)&(bufFlits-1)] = f
	u.n++
}

// creditViolation is push's failure path, out of line so its panic value
// stays out of the hot functions' escape analysis.
//
//go:noinline
func creditViolation() {
	panic("netsim: flit pushed onto a full input unit (credit protocol violated)")
}

// front returns a pointer to the front flit. The unit must be nonempty.
func (u *inputUnit) front() *flit { return &u.buf[u.head] }

// at returns a pointer to the i-th flit from the front (0 = front).
func (u *inputUnit) at(i int) *flit { return &u.buf[(int(u.head)+i)&(bufFlits-1)] }

// popFront removes and returns the front flit.
func (u *inputUnit) popFront() flit {
	f := u.buf[u.head]
	u.head = (u.head + 1) & (bufFlits - 1)
	u.n--
	return f
}

// truncate keeps the first k flits (packet purging compacts survivors to
// the front and then truncates).
func (u *inputUnit) truncate(k int) { u.n = uint8(k) }

// inflight is a flit on a reference-core delay line with its arrival cycle
// (16 bytes, pointer-free).
type inflight struct {
	f      flit
	arrive int64
}

// linkCost is one link's traversal cost, read by both cores' sends: the
// base latency New reads from Config.LinkLatency and the wake deadline
// SetLinkWake sets. A flit sent at cycle c arrives at base + max(c, wake);
// neither term decreases, so every link delivers in send order. lane is the
// event core's lane for base.
type linkCost struct {
	wake       int64
	base, lane int32
}

// downPort is where an output port's link lands, in the lane record's
// 16-bit fields: the downstream router and the index of its first input
// unit fed by the link (the downstream input port times the VC count; a
// flit lands in unit0 plus its VC), so a send reads it in one load.
type downPort struct {
	router, unit0 uint16
}

// ovc is one output-VC arbitration record (see router.ovcs). parked is set
// on every VC of an output when the output parks (router.park), so that a
// credit return, which writes this record anyway, learns from it whether
// the output may need unparking without reading the parked set; the flags
// outlive an unpark by a new candidate until that next credit return.
type ovc struct {
	owner  int32
	cred   int32
	parked bool
}

// router holds the per-node microarchitecture.
type router struct {
	// queued counts flits across all input units; idle routers (queued==0
	// and empty srcQ) leave the active worklist entirely.
	queued int
	// srcQ is the unbounded source queue feeding the injection port.
	srcQ ring[flit]
	// attn is the event core's route-pass worklist over input units, a set
	// of occupied units: those whose front flit has no route yet, plus
	// route-assigned units whose starvation counter crossed the
	// escape-diversion threshold. Every other occupied unit is a no-op for
	// routeUnit, so the route pass visits only these (ascending, the order
	// of the reference scan over every occupied unit).
	attn []uint64
	// candOuts is a bitmask over output ports: bit out is set iff cand has
	// any bit set for out.
	candOuts []uint64
	// parked is a bitmask over output ports the event core's arbitration
	// skips: the last scan granted nothing and observed no live starvation
	// counter, and nothing that could change either has happened since. A
	// parked output's credits can only grow via the unpark hook (downstream
	// credit returns), its owners cannot release (that takes a grant on the
	// output itself), and its candidate set can only shrink — so rescanning
	// it would read the same state, grant nothing, and bump only write-only
	// counters (a starvation counter on an escape VC is never read before
	// the next reset, and the escape-diversion check ignores escape VCs).
	parked []uint64
	// in[p*VCs+v] are the input units.
	in []inputUnit
	// cand[out*candW...] is a bitmask per output port over input units:
	// bit i is set iff in[i] has a queued flit routed to out. The event
	// core's arbitration visits only these bits (rotated to round-robin
	// order); outputs with an empty mask are skipped entirely via candOuts.
	cand  []uint64
	candW int
	// ovcs[p*VCs+v] is the merged per-(output port, VC) arbitration state:
	// the wormhole owner unit (-1 when free — switching must not
	// interleave flits of different packets on one virtual channel) and
	// the free downstream buffer slots. Packing both into one word keeps
	// the grant scan's ownership and credit checks on a single cache
	// line. The eject port's entries carry no credits (ejection is
	// always free); scans check out < eject before reading cred.
	ovcs []ovc
	// rr[p] is the round-robin pointer of output port p over input units.
	rr []int
	// outNbr[p] is the downstream node of output port p.
	outNbr []int
	id     int
	// linkBase is the global link id of output port 0 (ports are numbered
	// consecutively): Sim.links, Sim.lines and the flow counters index
	// links by linkBase+p.
	linkBase int32
	// ovcBase is the Sim.ovcs index of ovcs[0]; vcs is Sim.vcs.
	ovcBase, vcs int32
	// down[p] is where output port p's link lands (see downPort).
	down []downPort
	// inUp[p] is the upstream node of input port p; the last input port is
	// the injection port (upstream -1).
	inUp []int
	// upOutPort[p] is the output-port index at upstream router inUp[p]
	// whose link feeds input port p — the dense replacement for the old
	// per-router outPortOf map on the credit-return path. Undefined for
	// the injection port.
	upOutPort []int32
}

// attnSet/attnClear maintain the route pass worklist: bits are only set
// for units known to hold a queued flit.
func (r *router) attnSet(i int)   { r.attn[i>>6] |= 1 << uint(i&63) }
func (r *router) attnClear(i int) { r.attn[i>>6] &^= 1 << uint(i&63) }

// candSet/candClear maintain the per-output candidate masks on route
// assignment and release, keeping candOuts in sync. A new (or re-routed)
// candidate can change a parked output's arbitration outcome, so candSet
// also unparks.
func (r *router) candSet(out, i int) {
	r.cand[out*r.candW+i>>6] |= 1 << uint(i&63)
	r.candOuts[out>>6] |= 1 << uint(out&63)
	r.unpark(out)
}

// park adds out to the parked set and flags its output-VC records.
func (r *router) park(out int) {
	r.parked[out>>6] |= 1 << uint(out&63)
	vcs := int(r.vcs)
	for v := out * vcs; v < (out+1)*vcs; v++ {
		r.ovcs[v].parked = true
	}
}

// unpark removes out from the parked set. Its records may keep their
// flags: a flag only sends the next credit return to unparkFlagged.
func (r *router) unpark(out int) { r.parked[out>>6] &^= 1 << uint(out&63) }

// unparkFlagged unparks out and clears its records' flags: a credit return
// found the flag on the record it writes, so without reading the parked
// set it knows out may be parked.
func (r *router) unparkFlagged(out int) {
	r.unpark(out)
	vcs := int(r.vcs)
	for v := out * vcs; v < (out+1)*vcs; v++ {
		r.ovcs[v].parked = false
	}
}

func (r *router) candClear(out, i int) {
	r.cand[out*r.candW+i>>6] &^= 1 << uint(i&63)
	for _, w := range r.cand[out*r.candW : (out+1)*r.candW] {
		if w != 0 {
			return
		}
	}
	r.candOuts[out>>6] &^= 1 << uint(out&63)
}

// Sim is one simulation instance.
type Sim struct {
	cfg     Config
	vcs     int // virtual channels per port: EscapeVCs + adaptiveVCs
	routers []*router
	rng     *rand.Rand
	cycle   int64
	nextID  int64

	res      Results
	lastMove int64

	// Synthetic injection state: the Bernoulli(injRate) trial sequence
	// over (cycle, node) pairs is realized by geometric skip-sampling —
	// injSkip counts the failed trials remaining before the next success
	// (-1: not yet drawn). One RNG draw per injection instead of one per
	// node per cycle; both cores share this path, so the draw sequence
	// stays part of the cross-core determinism contract.
	injRate    float64
	injLog     float64 // math.Log(1 - injRate), the gap's denominator
	injPattern func(src int, rng *rand.Rand) (dst int, ok bool)
	injSkip    int64

	// snapBase is the counter baseline of the current telemetry interval;
	// emitSnapshot advances it and ResetStats re-anchors it.
	snapBase snapBase

	// fl/tr are the flow-attribution and trace-sampling accountants (see
	// flow.go); nil unless enabled by Config, so the disabled hot path pays
	// one nil check per hook.
	fl *flowAcct
	tr *traceAcct

	// active is the worklist of routers with queued or waiting flits, and
	// drain its subset whose source queue holds flits. lanes and far carry
	// the flits in flight on links: one lane per distinct base latency
	// (see newLanes), and the far heap for flits sent onto a waking link
	// (farSeq numbers them in send order). All are maintained only by the
	// event-driven core.
	active activeSet
	drain  activeSet
	lanes  []ring[laneRec]
	far    farHeap
	farSeq int64
	// links[l] is global link l's cost, read by both cores; lines[l] is its
	// delay line on the reference core, which keeps its own per-link
	// delivery (nil on the event core).
	links []linkCost
	lines []ring[inflight]

	// flitsIn tracks network occupancy (source queues + input units +
	// links) incrementally; the reference core recounts by scanning, which
	// is how the determinism suite cross-checks the counter.
	flitsIn int

	// slabs hold every packet, free the handles of the unused slots and
	// pooled the slot count (see growPool).
	slabs  [][]packet
	free   []int32
	pooled int

	// balg is the event core's allocation-free candidate path (rsc is its
	// scratch): non-nil when Alg supports it; nil on the reference core,
	// which then takes the allocating Alg.Candidates.
	rsc  routing.Scratch
	balg routing.BufferedAlgorithm

	// rc is the event core's route cache (Config.Routes, or a private
	// instance): the table-deterministic outcome per (cur, dst), which an
	// adaptive hop keeps unless its port is over the threshold. nil on the
	// reference core and on networks too large for the table.
	rc *RouteCache
	// galg is Alg when it is a greediest router over this network's routers
	// and rc is set: the column kernel behind fillColumn. nil otherwise, and
	// every miss is then resolved for its own pair.
	galg *routing.Greediest
	// st is the engine's own work record (see EngineStats).
	st EngineStats

	// ovcs holds every router's output-VC records (router.ovcs is its
	// router's stretch), so that a credit return indexes it directly
	// (inputUnit.upOvc).
	ovcs []ovc

	// overCred is the adaptive threshold as a credit bound (overCredit).
	overCred int32

	// scanSawLive is set by noteBlocked during a grant scan when a blocked
	// candidate's starvation counter is live (adaptive VC, head at front):
	// such an output must keep being rescanned every cycle and cannot park.
	scanSawLive bool

	// ar holds the arenas New carved the tables above from (nil once
	// Release has returned them).
	ar *arenas
}

// New builds a simulator for the given configuration. Its per-router
// tables are carved from arenas a released simulator of the same shape
// left behind when there is one (see Release), and from new ones
// otherwise; either way they start zeroed.
func New(cfg Config) (*Sim, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := len(cfg.Out)
	if cfg.Routes != nil && cfg.Routes.n != n {
		return nil, fmt.Errorf("netsim: route cache built for %d routers, network has %d", cfg.Routes.n, n)
	}
	vcs := cfg.EscapeVCs + adaptiveVCs
	// The port tables are carved from arenas sized by the adjacency: a
	// router has one output port per out-neighbor and one input port per
	// in-neighbor, plus the injection port.
	maxPorts, edges := 0, 0
	for _, row := range cfg.Out {
		maxPorts = max(maxPorts, len(row))
		edges += len(row)
	}
	ar := takeArenas(n, edges, vcs)
	inDeg := ar.deg
	for _, row := range cfg.Out {
		for _, w := range row {
			inDeg[w]++
		}
	}
	// A lane record names its downstream router and input unit in 16 bits.
	if units := (int(slices.Max(inDeg)) + 1) * vcs; n > 1<<16 || units > 1<<16 {
		return nil, fmt.Errorf("netsim: %d routers, up to %d input units per router: a lane record holds at most %d of each", n, units, 1<<16)
	}
	if ar.rng == nil {
		ar.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		ar.rng.Seed(cfg.Seed)
	}
	s := &Sim{
		cfg:      cfg,
		vcs:      vcs,
		rng:      ar.rng,
		overCred: overCredit(cfg.AdaptiveThreshold),
		ar:       ar,
	}
	s.routers = ar.ptrs
	rarena := ar.routers // contiguous router structs: s.routers[v] derefs stay in cache
	outNbrA, inUpA := ar.ints[:edges], ar.ints[edges:]
	downA, upOutA := ar.down, ar.upOut
	for v := 0; v < n; v++ {
		r := &rarena[v]
		r.id = v
		k, m := len(cfg.Out[v]), int(inDeg[v])+1
		r.outNbr, outNbrA = outNbrA[:k:k], outNbrA[k:]
		copy(r.outNbr, cfg.Out[v])
		r.down, downA = downA[:k:k], downA[k:]
		r.inUp, inUpA = inUpA[:0:m], inUpA[m:]
		r.upOutPort, upOutA = upOutA[:0:m], upOutA[m:]
		s.routers[v] = r
	}
	// Wire input ports from the out-adjacency; record the dense port
	// tables for both directions of every link as we go (the appends stay
	// within the carved capacity).
	for v := 0; v < n; v++ {
		r := s.routers[v]
		for p, w := range cfg.Out[v] {
			rw := s.routers[w]
			r.down[p] = downPort{router: uint16(w), unit0: uint16(len(rw.inUp) * s.vcs)}
			rw.inUp = append(rw.inUp, v)
			rw.upOutPort = append(rw.upOutPort, int32(p))
		}
	}
	// Per-router hot state (input units, candidate bitmasks, output VC
	// records, round-robin cursors) is carved out of shared arenas rather
	// than allocated per router: the hot loop walks these structures across
	// many routers per cycle, and scattering them through the heap makes the
	// walk memory-latency bound at low load. Every arena but the bitmask
	// block has a length the shape fixes (edges + n input ports, each with
	// vcs units; edges + n output ports, the ejection ports included); the
	// bitmask block's follows from the degrees.
	var totW, totCand, totOut64 int
	for _, r := range s.routers {
		r.inUp = append(r.inUp, -1) // injection port
		r.upOutPort = append(r.upOutPort, -1)
		w := (len(r.inUp)*s.vcs + 63) / 64
		nout := len(r.outNbr)
		totW += w
		totCand += (nout + 1) * w
		totOut64 += (nout + 1 + 63) / 64
	}
	inA := ar.units
	// One bitmask arena, carved per router in access order (attn,
	// candOuts, parked, cand): a router's whole worklist state spans a
	// couple of adjacent cache lines. The two router worklists come last.
	if need := totW + 2*totOut64 + totCand + 2*activeSetLen(n); len(ar.masks) != need {
		ar.masks = make([]uint64, need)
	}
	maskA := ar.masks
	s.ovcs = ar.ovcs
	ovcA := s.ovcs
	rrA := ar.rr
	// Pre-seed the source queues too (input units carry their rings inline);
	// a backlog that outgrows srcQSeed falls back to ring.grow.
	srcA := ar.srcQ
	s.links = ar.links
	carve := func(n int, a *[]uint64) []uint64 {
		s := (*a)[:n:n]
		*a = (*a)[n:]
		return s
	}
	links := 0
	for _, r := range s.routers {
		nin := len(r.inUp) * s.vcs
		nout := len(r.outNbr)
		r.in, inA = inA[:nin:nin], inA[nin:]
		for i := range r.in {
			r.in[i].route = -1
		}
		r.srcQ.buf, srcA = srcA[:srcQSeed:srcQSeed], srcA[srcQSeed:]
		for p, w := range r.outNbr {
			base := DefaultLinkLatency
			if cfg.LinkLatency != nil {
				base = max(1, cfg.LinkLatency(r.id, w))
			}
			s.links[links+p].base = int32(base)
		}
		r.linkBase = int32(links)
		links += nout
		r.rr, rrA = rrA[:nout+1:nout+1], rrA[nout+1:] // +1 for the ejection port
		r.candW = (nin + 63) / 64
		r.attn = carve(r.candW, &maskA)
		r.candOuts = carve((nout+1+63)/64, &maskA)
		r.parked = carve((nout+1+63)/64, &maskA)
		r.cand = carve((nout+1)*r.candW, &maskA)
		r.ovcBase, r.vcs = int32(len(s.ovcs)-len(ovcA)), int32(s.vcs)
		r.ovcs, ovcA = ovcA[:(nout+1)*s.vcs:(nout+1)*s.vcs], ovcA[(nout+1)*s.vcs:]
		for i := range r.ovcs {
			r.ovcs[i].owner = -1
			if i < nout*s.vcs {
				r.ovcs[i].cred = int32(bufFlits)
			}
		}
	}
	s.active = newActiveSet(n, carve(activeSetLen(n), &maskA))
	s.drain = newActiveSet(n, carve(activeSetLen(n), &maskA))
	// Every input unit's credit target, now that every router's output-VC
	// records have their place in s.ovcs.
	for _, r := range s.routers {
		for i := range r.in {
			port, vc := i/s.vcs, i%s.vcs
			r.in[i].upOvc = -1
			if up := r.inUp[port]; up >= 0 {
				r.in[i].upOvc = s.routers[up].ovcBase + r.upOutPort[port]*int32(s.vcs) + int32(vc)
			}
		}
	}
	if cfg.ReferenceCore {
		s.lines = make([]ring[inflight], links)
	} else {
		// The event core's delivery lanes and routing accelerators; the
		// reference core keeps per-link delay lines, leaves both
		// accelerators nil and so routes every head through Alg.Candidates.
		s.newLanes()
		s.balg, _ = cfg.Alg.(routing.BufferedAlgorithm)
		if maxPorts <= rcMaxPort+1 {
			if s.rc = cfg.Routes; s.rc == nil {
				s.rc = NewRouteCache(n)
			}
		}
	}
	if s.rc != nil {
		if g, ok := cfg.Alg.(*routing.Greediest); ok && len(g.Tables) == n {
			s.galg = g
		}
	}
	if cfg.FlowBuckets > 0 {
		s.fl = newFlowAcct(cfg.FlowBuckets, n, links)
	}
	if cfg.TraceSampleEvery > 0 && cfg.OnSnapshot != nil && cfg.SnapshotEvery > 0 {
		s.tr = &traceAcct{every: cfg.TraceSampleEvery, buf: make([]traceRecord, 0, 256)}
	}
	// Room for the first eight slabs (8 192 packets) before the slab list
	// itself has to grow.
	s.slabs = make([][]packet, 0, 8)
	s.res.MinInjectLatency = -1
	return s, nil
}

// newLanes gives every distinct base latency L one lane, in ascending
// order: the FIFO of the flits in flight on every link of latency L. A link
// that is not waking delivers exactly L cycles after the send, so records
// enter a lane in arrival order and the due ones are always a prefix. Every
// record leaves at the start of its arrival cycle, so a push at cycle c
// finds at most the sends of cycles c-L+1..c in the lane — at most
// LinkWidth per link and cycle — and the lane is sized from that exact
// bound, (links of latency L) × L × LinkWidth, rounded up to the ring's
// power of two: it never grows. Lanes of the sizes the arenas already hold
// are reused.
func (s *Sim) newLanes() {
	var lats []int32 // the distinct base latencies, ascending
	for l := range s.links {
		if i, ok := slices.BinarySearch(lats, s.links[l].base); !ok {
			lats = slices.Insert(lats, i, s.links[l].base)
		}
	}
	bound := make([]int, len(lats))
	for l := range s.links {
		i, _ := slices.BinarySearch(lats, s.links[l].base)
		s.links[l].lane = int32(i)
		bound[i] += int(lats[i]) * s.cfg.LinkWidth
	}
	if len(s.ar.lanes) != len(lats) {
		s.ar.lanes = make([]ring[laneRec], len(lats))
	}
	s.lanes = s.ar.lanes
	for i, b := range bound {
		if size := 1 << bits.Len(uint(b-1)); len(s.lanes[i].buf) != size {
			s.lanes[i].buf = make([]laneRec, size)
		}
	}
}

// SetPattern installs a synthetic traffic source: every cycle each node
// injects a packet with probability rate toward pattern(src, rng); the
// pattern returns ok=false to skip (e.g. self-addressed traffic). The
// Bernoulli trials are realized by geometric skip-sampling — the same
// process in distribution as a per-node draw each cycle, at one RNG draw
// per injection — so at low load the cost of injection scales with traffic,
// not with network size. Installing a pattern restarts the trial sequence.
func (s *Sim) SetPattern(rate float64, pattern func(src int, rng *rand.Rand) (int, bool)) {
	s.injPattern = pattern
	s.SetRate(rate)
}

// Run advances the simulation by the given number of cycles.
func (s *Sim) Run(cycles int64) {
	end := s.cycle + cycles
	for s.cycle < end {
		s.step()
	}
}

// step advances one network cycle, and is the one place the core is
// chosen. The event-driven core only touches routers on the active worklist
// and flits due off its lanes and far heap; the reference core (stepRef,
// reference.go) scans everything, its own per-link delay lines included.
// Both cores share every other data structure and every state transition —
// deliverFlit, drainSourceQueue, routeUnit, forward — and own only their
// scans and link queues, so their per-cycle evolution is bit-identical: the
// phase structure (deliver, inject, drain all, then route+arbitrate in
// ascending router order) is what the determinism contract pins, and it is
// preserved exactly (see ARCHITECTURE.md, "Hot loop").
func (s *Sim) step() {
	if s.cfg.ReferenceCore {
		s.stepRef()
	} else {
		clock := s.cfg.PhaseClock
		var t int64
		if clock != nil {
			t = clock()
		}
		s.deliverLinkFlits()
		if clock != nil {
			t = s.lap(t, &s.st.DeliverNs)
		}
		s.inject()
		if clock != nil {
			t = s.lap(t, &s.st.InjectNs)
		}
		// Drain the source queues that hold flits. Draining touches only
		// the router's own units, so the order is free; it sets no bit.
		for si, sw := range s.drain.sum {
			for ; sw != 0; sw &= sw - 1 {
				wi := si<<6 | bits.TrailingZeros64(sw)
				for w := s.drain.words[wi]; w != 0; w &= w - 1 {
					v := wi<<6 | bits.TrailingZeros64(w)
					r := s.routers[v]
					s.drainSourceQueue(r)
					if r.srcQ.Len() == 0 {
						s.drain.clear(v)
					}
				}
			}
		}
		if clock != nil {
			t = s.lap(t, &s.st.DrainNs)
		}
		active := s.active.count()
		s.st.ActiveRouters += active
		if active == 0 {
			s.st.EmptyCycles++
		}
		// Route and arbitrate in ascending router order (see activeSet).
		// Each summary and member word is read when the cursor reaches it.
		// A router clears only its own bit, and the only bit set mid-pass
		// is an OnDelivered callback's injection into the source queue of
		// a router with nothing queued (one with queued flits is a member
		// already), whose drain phase has run this cycle in the full scan
		// too: visiting that router now or next cycle changes nothing.
		for si := range s.active.sum {
			for sw := s.active.sum[si]; sw != 0; sw &= sw - 1 {
				wi := si<<6 | bits.TrailingZeros64(sw)
				for w := s.active.words[wi]; w != 0; w &= w - 1 {
					v := wi<<6 | bits.TrailingZeros64(w)
					r := s.routers[v]
					if r.queued > 0 {
						s.routeHeads(r)
						s.arbitrate(r)
					}
					if r.queued == 0 && r.srcQ.Len() == 0 {
						s.active.clear(v)
					}
				}
			}
		}
		if clock != nil {
			s.lap(t, &s.st.RouteNs)
		}
		// Sends are the only pushes onto a lane and come after this
		// cycle's pops, so each lane's high-water mark is read here.
		for li := range s.lanes {
			s.st.LaneHighWater = max(s.st.LaneHighWater, int64(s.lanes[li].n))
		}
	}
	s.cycle++
	if s.cfg.OnSnapshot != nil && s.cfg.SnapshotEvery > 0 &&
		s.cycle-s.snapBase.cycle >= s.cfg.SnapshotEvery {
		s.emitSnapshot()
	}
	if !s.res.Deadlocked && s.cycle-s.lastMove > 50_000 && s.inFlight() > 0 {
		s.res.Deadlocked = true
	}
}

// lap charges the PhaseClock time since t to one phase's timer and returns
// the clock's new reading.
func (s *Sim) lap(t int64, phase *int64) int64 {
	now := s.cfg.PhaseClock()
	*phase += now - t
	return now
}

// deliverLinkFlits moves every flit due this cycle into its downstream
// input buffer — the far heap's due records first, then each lane's due
// prefix — routing it on the spot when it fronts an unrouted unit
// (routeFront) or flagging that unit for the route pass. Space is
// guaranteed by the credit protocol. Same-cycle deliveries on distinct
// links commute — each input unit is fed by exactly one link — so only the
// order within a link matters, and far-before-lanes keeps it (see farHeap).
func (s *Sim) deliverLinkFlits() {
	landed := int64(0)
	for len(s.far) > 0 && s.far[0].arrive <= s.cycle {
		s.land(s.far.pop().rec)
		s.st.FarFlits++
		landed++
	}
	now := uint32(s.cycle)
	for li := range s.lanes {
		q := &s.lanes[li]
		n := q.n
		for q.Len() > 0 && int32(q.front().arrive-now) <= 0 {
			s.land(q.popFront())
		}
		s.st.LaneFlits += int64(n - q.n)
		landed += int64(n - q.n)
	}
	if landed > 0 {
		s.lastMove = s.cycle
	}
}

// land delivers one lane or far record downstream (see deliverFlit).
func (s *Sim) land(rec laneRec) {
	dn := s.routers[rec.dn]
	unit := int(rec.unit)
	if s.deliverFlit(dn, unit, rec.f) && !s.routeFront(dn, unit, rec.f) {
		dn.attnSet(unit)
	}
}

// send puts a flit forwarded through r's output port out on its link, on
// the event core: onto the lane of the link's base latency, to arrive base
// cycles from now, or — while the link is waking — onto the far heap, to
// arrive at base + wake.
func (s *Sim) send(r *router, out int, f flit) {
	k := &s.links[int(r.linkBase)+out]
	d := r.down[out]
	rec := laneRec{f: f, dn: d.router, unit: d.unit0 + uint16(f.vc)}
	if k.wake > s.cycle {
		s.far.push(farRec{arrive: int64(k.base) + k.wake, seq: s.farSeq, rec: rec})
		s.farSeq++
		s.st.FarHighWater = max(s.st.FarHighWater, int64(len(s.far)))
		return
	}
	rec.arrive = uint32(s.cycle + int64(k.base))
	// Inline ring.push: New sized the lane so that it is never full.
	q := &s.lanes[k.lane]
	if q.full() {
		laneOverflow()
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = rec
	q.n++
}

// laneOverflow is send's failure path, out of line so its panic value stays
// out of the hot functions' escape analysis.
//
//go:noinline
func laneOverflow() {
	panic("netsim: delivery lane over its sizing bound")
}

// deliverFlit lands one flit in downstream router dn's input unit. It
// reports whether the flit became the front of a unit that holds no route:
// the event core then resolves the route on the spot or flags the unit for
// its route pass; the reference scan visits every occupied unit anyway.
func (s *Sim) deliverFlit(dn *router, unit int, f flit) bool {
	if f.head {
		p := s.pkt(f.pkt)
		p.hops++
		if s.tr != nil {
			s.traceEvent(p, TraceHop, dn.id)
		}
	}
	iu := &dn.in[unit]
	wasEmpty := iu.n == 0
	iu.push(f)
	// A router with queued flits is on the worklist already.
	if dn.queued == 0 {
		s.active.set(dn.id)
	}
	dn.queued++
	if !wasEmpty {
		return false
	}
	if iu.route >= 0 {
		dn.candSet(int(iu.route), unit)
		return false
	}
	return true
}

// routeFront tries to resolve the route of a flit that just became the
// front of an unrouted input unit (see deliverFlit), straight from the
// route cache — the event core's shortcut past the attention pass.
// Deliveries all happen before any router's route pass, and the outcomes
// served here (ejection, cached table-deterministic ports) depend on no
// dynamic state, so assigning them during delivery is indistinguishable
// from routeUnit assigning them later the same cycle. Any case this cannot
// decide identically — escape traffic, cache misses, drop outcomes, and
// under AdaptiveEveryHop every hop but ejection, whose port routeUnit must
// check against the credit state of the route pass, not of delivery — is
// declined, leaving the unit on the attention path for routeUnit.
func (s *Sim) routeFront(r *router, unit int, f flit) bool {
	if !f.head {
		return false
	}
	p := s.pkt(f.pkt)
	if p.escaped {
		return false
	}
	iu := &r.in[unit]
	if p.dst == r.id {
		eject := len(r.outNbr)
		iu.route = int32(eject)
		iu.outVC = int32(f.vc)
		r.candSet(eject, unit)
		return true
	}
	// Link deliveries never land in an injection unit, so this is never a
	// first hop: unless every hop is adaptive, the cached outcome is the
	// whole decision.
	if s.rc == nil || s.cfg.Adaptive == AdaptiveEveryHop {
		return false
	}
	outcome := s.rc.get(r.id, p.dst)
	if outcome < 0 {
		return false
	}
	s.st.RouteHits++
	iu.route = int32(outcome)
	iu.outVC = int32(p.advc)
	iu.blocked = 0
	r.candSet(outcome, unit)
	return true
}

// inject enqueues the cycle's synthetic packets into source queues (clients
// add their own through Inject between Run slices). It walks the cycle's n
// Bernoulli trials (node order) by geometric gaps: the draw sequence — one
// gap draw per success, then the pattern's own draws — is identical in both
// cores, which keeps cross-core bit-identity, and the idle case costs one
// counter decrement instead of n RNG draws.
func (s *Sim) inject() {
	if s.injPattern == nil || s.injRate <= 0 {
		return
	}
	n := int64(len(s.routers))
	if s.injSkip < 0 {
		s.injSkip = s.injGap()
	}
	v := int64(0)
	for {
		if s.injSkip >= n-v {
			s.injSkip -= n - v
			break
		}
		v += s.injSkip
		src := int(v)
		if dst, ok := s.injPattern(src, s.rng); ok && dst != src &&
			dst >= 0 && dst < len(s.routers) {
			s.enqueuePacket(s.routers[src], src, dst)
		}
		s.injSkip = s.injGap()
		v++
	}
}

// injGap draws the number of failed Bernoulli(injRate) trials before the
// next successful one (inverse-CDF geometric sampling).
func (s *Sim) injGap() int64 {
	if s.injRate >= 1 {
		return 0
	}
	u := s.rng.Float64()
	return int64(math.Log(1-u) / s.injLog)
}

// adaptiveVC maps the policy's choice into the adaptive VC index range
// [EscapeVCs, EscapeVCs+adaptiveVCs).
func (s *Sim) adaptiveVC(src, dst int) int {
	var pick int
	if s.cfg.VCPolicy != nil {
		pick = s.cfg.VCPolicy(src, dst) % adaptiveVCs
		if pick < 0 {
			pick += adaptiveVCs
		}
	} else {
		pick = int(s.nextID) % adaptiveVCs
	}
	return s.cfg.EscapeVCs + pick
}

// pkt returns the packet a handle names. Slabs never move once allocated,
// so the pointer stays valid while the packet lives, even across a
// delivery callback that injects and so grows the pool.
func (s *Sim) pkt(h int32) *packet { return &s.slabs[h>>slabBits][h&(poolSlabMax-1)] }

// allocPacket takes a packet handle from the free list, growing the pool
// when it is dry (growth toward the steady-state in-flight high-water mark).
func (s *Sim) allocPacket() int32 {
	if len(s.free) == 0 {
		s.growPool()
	}
	n := len(s.free)
	h := s.free[n-1]
	s.free = s.free[:n-1]
	if live := int64(s.pooled - n + 1); live > s.st.PoolHighWater {
		s.st.PoolHighWater = live
	}
	return h
}

// growPool is the pool-miss slow path, kept out of the hot functions so the
// escape-analysis gate can pin them allocation-free. It appends one slab as
// large as the population so far, within [poolSeed, poolSlabMax]: reaching
// a modest high-water mark costs O(log) growths instead of one per packet,
// while a backlog that keeps growing (a run past saturation) is never
// over-provisioned by more than one bounded slab. Slabs are never copied: a
// single array grown by append would leave each old copy as garbage, which
// past saturation, where the population keeps growing, raised a quick
// Figure 10 run's peak RSS by half. The free list is sized for every slot
// here, so freePacket never grows it, and the new handles go on it highest
// first, so packets allocated in a row sit next to each other.
//
//go:noinline
func (s *Sim) growPool() {
	size := min(max(poolSeed, s.pooled), poolSlabMax)
	slab := int32(len(s.slabs)) << slabBits
	s.slabs = append(s.slabs, make([]packet, size))
	s.pooled += size
	s.free = slices.Grow(s.free, s.pooled)
	for i := int32(size) - 1; i >= 0; i-- {
		s.free = append(s.free, slab|i)
	}
	s.st.PoolGrowths++
}

// freePacket returns a fully retired packet's handle to the free list.
func (s *Sim) freePacket(h int32) { s.free = append(s.free, h) }

func (s *Sim) enqueuePacket(r *router, src, dst int) {
	s.enqueueSized(r, src, dst, s.cfg.PacketFlits, 0)
}

func (s *Sim) enqueueSized(r *router, src, dst, flits int, tag int64) {
	h := s.allocPacket()
	p := s.pkt(h)
	// Every field, set in place: assigning a packet literal builds it
	// first and then copies all of it.
	p.id, p.tag = s.nextID, tag
	p.src, p.dst = src, dst
	p.advc = s.adaptiveVC(src, dst)
	p.size, p.left = flits, flits
	p.injected, p.hops, p.escaped = s.cycle, 0, false
	s.nextID++
	s.res.Injected++
	s.flitsIn += flits
	if s.tr != nil {
		s.traceEvent(p, TraceInject, src)
	}
	// A router whose source queue holds flits is on both worklists
	// already.
	if r.srcQ.Len() == 0 {
		s.active.set(r.id)
		s.drain.set(r.id)
	}
	for i := 0; i < flits; i++ {
		if r.srcQ.full() {
			s.st.SrcQGrowths++
		}
		r.srcQ.push(flit{pkt: h, vc: uint8(p.advc), head: i == 0, tail: i == flits-1})
	}
	s.st.SrcQHighWater = max(s.st.SrcQHighWater, int64(r.srcQ.Len()))
}

// Inject enqueues one packet of the given flit count at the current cycle;
// closed-loop clients call it from OnDelivered callbacks or between Run
// slices. The tag is echoed to OnDelivered when the packet arrives.
func (s *Sim) Inject(src, dst, flits int, tag int64) error {
	if src == dst || src < 0 || src >= len(s.routers) || dst < 0 || dst >= len(s.routers) {
		return fmt.Errorf("netsim: invalid injection %d->%d", src, dst)
	}
	if flits <= 0 {
		flits = s.cfg.PacketFlits
	}
	s.enqueueSized(s.routers[src], src, dst, flits, tag)
	return nil
}

// drainSourceQueue moves flits from the unbounded source queue into the
// injection-port input units while buffer space allows.
func (s *Sim) drainSourceQueue(r *router) {
	injPort := len(r.inUp) - 1
	for r.srcQ.Len() > 0 {
		f := r.srcQ.front()
		unit := injPort*s.vcs + int(f.vc)
		iu := &r.in[unit]
		if iu.n >= bufFlits {
			break
		}
		if iu.n == 0 {
			if iu.route >= 0 {
				r.candSet(int(iu.route), unit)
			} else {
				r.attnSet(unit)
			}
		}
		iu.push(*f)
		r.srcQ.popFront()
		r.queued++
		s.lastMove = s.cycle
	}
}

// candidates resolves the adaptive next-hop candidates for cur toward dst:
// allocation-free through balg where New installed it, else the allocating
// per-flit path the seed used. The result is valid until the next call.
func (s *Sim) candidates(cur, dst int) []int {
	if s.balg == nil {
		return s.cfg.Alg.Candidates(cur, dst)
	}
	return s.balg.CandidatesInto(&s.rsc, cur, dst)
}

// portOf resolves which output port of r (if any) leads to node: its
// index among r's distinct out-neighbors, or -1 when node is not one.
func (r *router) portOf(node int) int { return slices.Index(r.outNbr, node) }

// routeHeads is the event core's route pass: it assigns an output route and
// next-hop VC to every input unit whose head flit starts a packet, and
// diverts starved heads to the escape subnetwork for one hop (Duato's
// protocol: adaptive channels whenever possible, escape as the
// always-available drainage; packets return to adaptive routing at the next
// router). It visits only units needing route attention, ascending — the
// same order the reference scan produces over the same units (all other
// occupied units make routeUnit a no-op). routeUnit mutates at most the
// visited unit's own bit, so iterating a snapshot of each word is safe.
func (s *Sim) routeHeads(r *router) {
	eject := len(r.outNbr) // virtual ejection port index
	for wi, w := range r.attn {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			s.routeUnit(r, i, eject)
		}
	}
}

// routeUnit routes the head of one occupied input unit (the shared per-unit
// body of both cores' route passes).
func (s *Sim) routeUnit(r *router, i, eject int) {
	iu := &r.in[i]
	f := iu.front()
	if iu.route >= 0 {
		// Divert a starved routed head to the escape subnetwork (only
		// heads can be re-routed; bodies follow the committed path). A
		// failed diversion keeps the existing adaptive route.
		if f.head && int(iu.route) != eject && iu.blocked >= escapePatience &&
			int(iu.outVC) >= s.cfg.EscapeVCs {
			s.assignEscape(r, iu, i, s.pkt(f.pkt))
		}
		return
	}
	if !f.head {
		// A body flit with no route can only be the orphan of a packet
		// already dropped as unroutable; purge the remains silently.
		s.purgeHeadPacket(r, i)
		return
	}
	p := s.pkt(f.pkt)
	if p.dst == r.id {
		iu.route = int32(eject)
		iu.outVC = int32(f.vc)
		r.candSet(eject, i)
		r.attnClear(i)
		return
	}
	if p.escaped {
		// Committed to the escape subnetwork for the rest of the trip.
		// An escape hop that stops resolving (the destination or the
		// current node left the escape ring mid-reconfiguration) makes
		// the packet permanently undeliverable: drop it rather than
		// let it clog the escape channels forever.
		if !s.assignEscape(r, iu, i, p) {
			if s.tr != nil {
				s.traceEvent(p, TraceDrop, r.id)
			}
			s.purgeHeadPacket(r, i)
			s.res.Dropped++
		}
		return
	}
	// The deterministic outcome — the first candidate's port, or a no-route
	// verdict — is a pure function of the tables, served from the route
	// cache at every hop and computed (and recorded) on a miss — for the
	// pair alone, or for the destination's whole column once it has missed
	// often enough. At an adaptive hop the paper's policy keeps that port
	// unless its queue is at or over the threshold, so only then is the
	// full candidate set evaluated against credit state; that result is
	// never cached.
	adaptive := s.cfg.Adaptive == AdaptiveEveryHop ||
		(s.cfg.Adaptive == AdaptiveFirstHop && r.id == p.src)
	outcome := rcEmpty
	if s.rc != nil {
		outcome = s.rc.get(r.id, p.dst)
		if outcome != rcEmpty {
			s.st.RouteHits++
		} else if s.galg != nil && s.rc.missed(p.dst) {
			s.fillColumn(p.dst)
			outcome = s.rc.get(r.id, p.dst)
		}
	}
	var cands []int
	if outcome == rcEmpty {
		if s.rc != nil {
			s.st.RouteMisses++
		}
		cands = s.candidates(r.id, p.dst)
		if len(cands) == 0 {
			outcome = rcNoRoute
		} else {
			outcome = s.pickPort(r, p, cands, false)
		}
		if s.rc != nil {
			s.rc.put(r.id, p.dst, outcome)
		}
	}
	if adaptive && outcome >= 0 && s.overThreshold(r, outcome, p.advc) {
		if cands == nil {
			cands = s.candidates(r.id, p.dst)
		}
		s.st.OverThreshold++
		outcome = s.pickPort(r, p, cands, true)
	}
	switch {
	case outcome >= 0:
		iu.route = int32(outcome)
		iu.outVC = int32(p.advc)
		iu.blocked = 0
		r.candSet(outcome, i)
		r.attnClear(i)
	case outcome == rcNoRoute:
		// Unroutable on the adaptive network: try escape before
		// dropping (reconfiguration windows).
		if s.cfg.EscapeRoute != nil && s.assignEscape(r, iu, i, p) {
			return
		}
		if s.tr != nil {
			s.traceEvent(p, TraceDrop, r.id)
		}
		s.purgeHeadPacket(r, i)
		s.res.Dropped++
	default: // rcNoPort
		if s.tr != nil {
			s.traceEvent(p, TraceDrop, r.id)
		}
		s.purgeHeadPacket(r, i)
		s.res.Dropped++
	}
}

// fillColumn records every router's table-deterministic outcome toward dst
// from one greediest column: the first hop's port, rcNoRoute where there is
// no first hop, and — where the first hop is not a link of the router
// (stale tables mid-reconfiguration) — the per-pair path's own answer. Each
// entry is the value a per-pair miss would store, written by the same
// atomic OR, and entries already filled are skipped, so a fill racing
// other simulators' fills (column or pair) changes nothing they can see.
func (s *Sim) fillColumn(dst int) {
	for cur, w := range s.galg.FirstHopColumn(&s.rsc, dst) {
		if cur == dst || s.rc.get(cur, dst) != rcEmpty {
			continue
		}
		r := s.routers[cur]
		outcome := rcNoRoute
		if w >= 0 {
			if outcome = r.portOf(int(w)); outcome < 0 {
				outcome = s.pickPort(r, nil, s.candidates(cur, dst), false)
			}
		}
		s.rc.put(cur, dst, outcome)
	}
	s.rc.fills.Add(1)
	s.st.ColumnFills++
}

// assignEscape commits the packet to the escape subnetwork and routes its
// next hop along it. It reports whether the escape hop resolved to a real
// link; on failure (the escape function declined — possible only on a
// degraded escape subnetwork mid-reconfiguration) the unit is left exactly
// as it was, and the caller decides the packet's fate.
func (s *Sim) assignEscape(r *router, iu *inputUnit, unit int, p *packet) bool {
	next, escVC := s.escapeHop(r.id, p.dst)
	port := r.portOf(next)
	if port < 0 {
		return false
	}
	if !p.escaped {
		p.escaped = true
		s.res.Escaped++
		s.st.EscapeTransitions++
		if s.tr != nil {
			s.traceEvent(p, TraceEscape, r.id)
		}
	}
	if iu.route >= 0 {
		r.candClear(int(iu.route), unit) // diversion: release the old output
	}
	iu.route = int32(port)
	iu.outVC = int32(escVC)
	iu.blocked = 0
	r.candSet(port, unit)
	r.attnClear(unit)
	return true
}

// escapeHop resolves the escape next hop and VC.
func (s *Sim) escapeHop(cur, dst int) (int, int) {
	if s.cfg.EscapeRoute != nil {
		next, v := s.cfg.EscapeRoute(cur, dst)
		if v < 0 {
			v = 0
		}
		if v >= s.cfg.EscapeVCs {
			v = s.cfg.EscapeVCs - 1
		}
		return next, v
	}
	cands := s.candidates(cur, dst)
	if len(cands) == 0 {
		return -1, 0
	}
	return cands[0], 0
}

// overThreshold reports whether output port's queue on the given VC is at
// or over the adaptive occupancy threshold.
func (s *Sim) overThreshold(r *router, port, vc int) bool {
	return r.ovcs[port*s.vcs+vc].cred <= s.overCred
}

// overCredit is the credit bound behind overThreshold: an output VC with
// cred credits holds k = bufFlits-cred flits, and for an integer k,
// k >= threshold*bufFlits exactly when k >= its ceiling, so the queue is at
// or over the threshold exactly when cred <= bufFlits - ceil(threshold *
// bufFlits). A threshold above 1 (or NaN, or +Inf) can never be reached:
// the bound is then -1, below every credit count.
func overCredit(threshold float64) int32 {
	x := threshold * float64(bufFlits)
	if !(x <= bufFlits) {
		return -1
	}
	return bufFlits - int32(math.Ceil(x))
}

// pickPort maps the candidate next hops to an output port (rcNoPort when
// none is a link). Without adaptive it is the deterministic choice, the
// first candidate; with it, the paper's policy: below the occupancy
// threshold the deterministic port wins, at or above it the candidate with
// the most downstream credits (i.e. the lightest port counter) is chosen.
func (s *Sim) pickPort(r *router, p *packet, cands []int, adaptive bool) int {
	first := r.portOf(cands[0])
	if first < 0 {
		// The algorithm proposed a non-link (stale tables mid-reconfig);
		// fall back to any candidate that is a port.
		for _, c := range cands[1:] {
			if pt := r.portOf(c); pt >= 0 {
				return pt
			}
		}
		return rcNoPort
	}
	if !adaptive || len(cands) == 1 || !s.overThreshold(r, first, p.advc) {
		return first
	}
	best, bestCred := first, r.ovcs[first*s.vcs+p.advc].cred
	for _, c := range cands[1:] {
		pt := r.portOf(c)
		if pt < 0 {
			continue
		}
		if cr := r.ovcs[pt*s.vcs+p.advc].cred; cr > bestCred {
			best, bestCred = pt, cr
		}
	}
	return best
}

// purgeHeadPacket removes every queued flit of the packet at the front of
// an input unit, returning the freed buffer slots to the upstream router's
// credit counters. Callers account the drop.
func (s *Sim) purgeHeadPacket(r *router, unit int) {
	iu := &r.in[unit]
	if iu.n == 0 {
		return
	}
	h := iu.front().pkt
	kept := 0
	purged := 0
	n := iu.Len()
	for i := 0; i < n; i++ {
		f := *iu.at(i)
		if f.pkt != h {
			*iu.at(kept) = f
			kept++
		} else {
			purged++
		}
	}
	iu.truncate(kept)
	r.queued -= purged
	s.flitsIn -= purged
	p := s.pkt(h)
	p.left -= purged
	if iu.route >= 0 {
		r.candClear(int(iu.route), unit)
	}
	if kept == 0 {
		r.attnClear(unit)
	} else {
		r.attnSet(unit) // the next packet's flits need routing (or purging)
	}
	iu.route = -1
	iu.blocked = 0
	if purged > 0 && s.creditUp(iu, int32(purged)) {
		s.unparkUp(r, unit) // new credits: the upstream output may grant again
	}
	if p.left == 0 {
		s.freePacket(h)
	}
}

// creditUp returns n credits for slots freed in input unit iu to the
// upstream output VC they belong to. It reports whether that output is
// flagged as parked; the caller then unparks it (unparkUp).
func (s *Sim) creditUp(iu *inputUnit, n int32) bool {
	if iu.upOvc < 0 {
		return false
	}
	o := &s.ovcs[iu.upOvc]
	o.cred += n
	return o.parked
}

// unparkUp unparks the flagged upstream output feeding r's input unit. It
// is the rare path (no output parks on a loaded network), kept out of line.
//
//go:noinline
func (s *Sim) unparkUp(r *router, unit int) {
	port := unit / s.vcs
	s.routers[r.inUp[port]].unparkFlagged(int(r.upOutPort[port]))
}

// arbitrate is the event core's switch allocation: it grants each output
// virtual channel to at most one input unit per cycle, with per-packet
// channel ownership (wormhole discipline: once a head flit claims an output
// VC, body flits of other packets cannot interleave until the tail releases
// it) and round-robin fairness among competing units. Each output port
// forwards at most LinkWidth flits per cycle. It visits only outputs some
// unit is routed to and that are not parked, ascending — the reference scan
// grants nothing on the others. Arbitration mutates candOuts/parked only
// for the output being arbitrated, so snapshot words are safe to iterate.
func (s *Sim) arbitrate(r *router) {
	nUnits := len(r.in)
	eject := len(r.outNbr)
	vcs := s.vcs
	for wi := range r.candOuts {
		w := r.candOuts[wi] &^ r.parked[wi]
		for w != 0 {
			out := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			s.scanSawLive = false
			for slot := 0; slot < s.cfg.LinkWidth; slot++ {
				s.st.GrantScans++
				granted := -1
				if m := r.cand[out*r.candW]; r.candW > 1 || m&(m-1) != 0 {
					granted = s.scanSlot(r, out, nUnits, eject, vcs)
				} else if m != 0 {
					// One candidate, the dominant shape: the round-robin
					// rotation cannot matter.
					i := bits.TrailingZeros64(m)
					if r.blocked(out, i, eject, vcs) {
						s.noteBlocked(r, &r.in[i], i)
					} else {
						granted = i
					}
				}
				if granted < 0 {
					s.st.FailedScans++
					if slot == 0 {
						if s.scanSawLive {
							s.st.LiveFailedScans++
						} else {
							s.st.Parks++
							r.park(out)
						}
					}
					break
				}
				if f, onLink := s.forward(r, out, granted, nUnits, eject, vcs); onLink {
					s.send(r, out, f)
				}
			}
		}
	}
}

// scanSlot is the event core's grant scan: identical semantics to
// scanSlotRef — the candidate mask holds exactly the units the reference
// scan would consider (queued flit, routed to out), visited in the same
// round-robin rotation — but the cost is proportional to the candidates,
// not to the unit count. arbitrate takes an output with at most one
// candidate, where the rotation cannot matter, straight to blocked.
func (s *Sim) scanSlot(r *router, out, nUnits, eject, vcs int) int {
	base := out * r.candW
	rr := r.rr[out]
	// Two passes over the rotation: unit indexes [rr, nUnits) then [0, rr).
	lo, hi := rr, nUnits
	for pass := 0; pass < 2; pass++ {
		for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
			w := r.cand[base+wi]
			if wi == lo>>6 {
				w &= ^uint64(0) << uint(lo&63)
			}
			if wi == (hi-1)>>6 && hi&63 != 0 {
				w &= 1<<uint(hi&63) - 1
			}
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if !r.blocked(out, i, eject, vcs) {
					return i
				}
				s.noteBlocked(r, &r.in[i], i)
			}
		}
		lo, hi = 0, rr
		if hi == 0 {
			break
		}
	}
	return -1
}

// blocked reports whether candidate unit i of output out must wait: its
// output VC is held by another packet (wormhole), or a link has no
// downstream slot (ejection is always free). Callers note the blocked head
// (noteBlocked).
func (r *router) blocked(out, i, eject, vcs int) bool {
	o := &r.ovcs[out*vcs+int(r.in[i].outVC)]
	return o.owner >= 0 && int(o.owner) != i || out < eject && o.cred <= 0
}

// forward moves the front flit of the granted input unit through output
// port out — the state transition both cores' grant scans end in: advance
// the round-robin pointer, release or claim the output VC, return a credit
// upstream, then eject the flit or take a credit for the link. It returns
// the flit bound for the link, on its outgoing VC, and whether there is
// one; the caller puts it on the link (send, or the reference core's
// sendRef), which is the only part of a hop the cores keep apart.
func (s *Sim) forward(r *router, out, granted, nUnits, eject, vcs int) (flit, bool) {
	if granted+1 == nUnits {
		r.rr[out] = 0
	} else {
		r.rr[out] = granted + 1
	}
	iu := &r.in[granted]
	f := iu.popFront()
	if iu.n == 0 {
		r.candClear(out, granted)
		r.attnClear(granted)
	} else if f.tail {
		r.candClear(out, granted) // route released below; next packet re-routes
		r.attnSet(granted)
	} else {
		r.attnClear(granted) // forward progress: starvation attention is over
	}
	r.queued--
	iu.blocked = 0
	s.lastMove = s.cycle
	if s.fl != nil {
		s.fl.rtrs[r.id]++
	}
	outVC := int(iu.outVC)
	o := &r.ovcs[out*vcs+outVC]
	if f.tail {
		iu.route = -1
		o.owner = -1
	} else if f.head {
		o.owner = int32(granted)
	}
	// Return a credit to the upstream router for the freed slot; the
	// freed buffer is the unit's own VC, not the outgoing VC.
	if s.creditUp(iu, 1) {
		s.unparkUp(r, granted) // new credit: the upstream output may grant again
	}
	if out == eject {
		s.res.FlitsDelivered++
		s.flitsIn--
		p := s.pkt(f.pkt)
		p.left--
		if f.tail {
			s.recordDelivery(p)
		}
		if p.left == 0 {
			s.freePacket(f.pkt)
		}
		return flit{}, false
	}
	// Send over the link on the outgoing VC.
	o.cred--
	f.vc = uint8(outVC)
	s.res.FlitHops++
	if s.fl != nil {
		s.fl.links[r.linkBase+int32(out)]++
	}
	return f, true
}

// noteBlocked bumps the starvation counter of a unit whose head flit is
// route-assigned but could not move this cycle, and flags the unit for
// route-pass attention once the counter crosses the escape-diversion
// threshold (a superset of the divertible units: routeUnit rechecks the
// full condition).
func (s *Sim) noteBlocked(r *router, iu *inputUnit, i int) {
	if iu.n > 0 && iu.front().head {
		iu.blocked++
		if int(iu.outVC) >= s.cfg.EscapeVCs {
			// A live counter: it feeds the escape-diversion check, so its
			// output cannot be parked (skipped scans would miss increments).
			s.scanSawLive = true
			if iu.blocked >= escapePatience {
				r.attnSet(i)
			}
		}
	}
}

// recordDelivery books a completed packet.
func (s *Sim) recordDelivery(p *packet) {
	lat := s.cycle - p.injected + 1
	s.res.Delivered++
	s.res.LatencySum += float64(lat)
	s.res.LatencyHist.Observe(int(lat))
	s.res.HopHist.Observe(p.hops)
	if s.res.MinInjectLatency < 0 || lat < s.res.MinInjectLatency {
		s.res.MinInjectLatency = lat
	}
	if s.fl != nil {
		s.fl.observe(p.src, p.dst, lat, p.hops)
	}
	if s.tr != nil {
		s.traceEvent(p, TraceDeliver, p.dst)
	}
	if s.cfg.OnDelivered != nil {
		s.cfg.OnDelivered(p.src, p.dst, p.tag)
	}
}

// inFlight returns the number of flits currently inside the network
// (buffers, links, and source queues). The event core reads the
// incremental counter; the reference core recounts by scanning, which lets
// the determinism suite cross-check the counter through Results and
// Snapshot occupancy fields.
func (s *Sim) inFlight() int {
	if s.cfg.ReferenceCore {
		return s.countInFlight()
	}
	return s.flitsIn
}

// Cycle returns the current cycle count.
func (s *Sim) Cycle() int64 { return s.cycle }

// Results returns a snapshot of the accumulated metrics.
func (s *Sim) Results() Results {
	r := s.res
	r.Cycles = s.cycle
	r.Nodes = len(s.routers)
	r.InFlight = s.inFlight()
	return r
}

// ResetStats clears metrics (after warm-up) without disturbing network
// state. The telemetry interval baseline re-anchors at the current cycle, so
// the first snapshot after a reset covers only post-reset cycles.
func (s *Sim) ResetStats() {
	s.res = Results{MinInjectLatency: -1}
	s.snapBase = snapBase{cycle: s.cycle}
	if s.fl != nil {
		s.fl.reset()
	}
	if s.tr != nil {
		s.tr.buf = s.tr.buf[:0]
	}
}

// SetEscapeRoute swaps the escape routing function mid-run — the hook
// scheduled reconfiguration uses to keep the escape subnetwork consistent
// with the alive mask. Call it only between (or inside) Run slices on the
// simulating goroutine.
func (s *Sim) SetEscapeRoute(f func(cur, dst int) (next int, escVC int)) {
	s.cfg.EscapeRoute = f
	// Reconfiguration swaps the escape route exactly when the routing
	// tables have just mutated (GateOn/GateOff), so the cached outcomes are
	// stale. The old cache may be shared with simulators that must not see
	// it change under them: detach to a fresh private one.
	if s.rc != nil {
		s.rc = NewRouteCache(s.rc.n)
	}
}

// SetRate swaps the synthetic injection rate mid-run, keeping the
// installed pattern — the hook scenario schedules use for diurnal and
// bursty arrival-rate modulation. Like SetPattern, it restarts the
// geometric skip-sampling trial sequence, so the next gap draws from the
// new rate; both cores share the injection path, which keeps cross-core
// runs bit-identical as long as the swap happens at the same cycle
// boundary. Call it only between Run slices on the simulating goroutine.
func (s *Sim) SetRate(rate float64) {
	s.injRate = rate
	s.injLog = math.Log(1 - rate)
	s.injSkip = -1
}

// SetLinkWake charges the link u->v a wake deadline, as scheduled
// reconfiguration charges a link it just switched on: a flit sent onto it
// before cycle until arrives at until plus the base latency. A deadline
// never moves earlier, so the link keeps delivering in send order. It
// fails when u->v is not a link. Call it only between Run slices on the
// simulating goroutine.
func (s *Sim) SetLinkWake(u, v int, until int64) error {
	if u < 0 || u >= len(s.routers) || s.routers[u].portOf(v) < 0 {
		return fmt.Errorf("netsim: no link %d->%d", u, v)
	}
	k := &s.links[int(s.routers[u].linkBase)+s.routers[u].portOf(v)]
	k.wake = max(k.wake, until)
	return nil
}
