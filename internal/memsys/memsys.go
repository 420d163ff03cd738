package memsys

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/memnode"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// Packet sizes in flits: requests are header-only; data packets carry a
// 64 B line over 128-bit flits plus a header flit.
const (
	ReqFlits  = 1
	DataFlits = 5
)

// cpu is one socket replaying a trace closed-loop.
type cpu struct {
	node        int
	ops         []trace.Op
	pos         int
	outstanding int
	// readyAt is the earliest cycle the next op may issue, advanced by the
	// inter-op instruction gaps (compute time) and pushed back by window
	// stalls.
	readyAt int64
	// totalInstr is the last op's absolute instruction ID (for IPC).
	totalInstr int64
}

// System is the co-simulation driver.
type System struct {
	net    *netsim.Sim
	pool   *memnode.Pool
	cpus   []*cpu
	window int

	// Ports is the router radix used for network-energy accounting
	// (0 defaults to the 8-port reference radix).
	Ports int

	pendingResp []pendingResp
	reads       map[int64]outstandingRead // by read tag, from issue to retire
	nextTag     int64

	// Stats
	ReadsIssued    int64
	WritesIssued   int64
	ReadsComplete  int64
	DRAMAccesses   int64
	ReadLatencySum int64 // total issue-to-retire cycles over completed reads
}

// outstandingRead is one issued read: its socket, line address and issue
// cycle.
type outstandingRead struct {
	cpu    int
	addr   uint64
	issued int64
}

type pendingResp struct {
	readyAt int64
	memNode int
	cpuNode int
	tag     int64
}

// Build wires a System from a netsim configuration (OnDelivered must be
// unset; memsys installs its own), a DRAM pool, the memory node each CPU
// socket attaches to, the per-socket outstanding-read window, and one trace
// per socket.
func Build(netCfg netsim.Config, pool *memnode.Pool, cpuNodes []int, window int,
	traces [][]trace.Op) (*System, error) {
	if len(cpuNodes) == 0 {
		return nil, fmt.Errorf("memsys: need at least one CPU socket")
	}
	if len(traces) != len(cpuNodes) {
		return nil, fmt.Errorf("memsys: %d traces for %d sockets", len(traces), len(cpuNodes))
	}
	if netCfg.OnDelivered != nil {
		return nil, fmt.Errorf("memsys: netsim OnDelivered must be unset")
	}
	if window <= 0 {
		window = 8
	}
	sys := &System{
		pool:   pool,
		window: window,
		reads:  make(map[int64]outstandingRead),
	}
	netCfg.OnDelivered = sys.onDelivered
	net, err := netsim.New(netCfg)
	if err != nil {
		return nil, err
	}
	sys.net = net
	for i, node := range cpuNodes {
		if node < 0 || node >= len(pool.Nodes) {
			return nil, fmt.Errorf("memsys: CPU %d attached to invalid node %d", i, node)
		}
		sys.cpus = append(sys.cpus, &cpu{node: node, ops: traces[i]})
	}
	return sys, nil
}

// onDelivered couples requests with DRAM service and responses with their
// issuing socket. Positive tags are requests arriving at memory nodes;
// negative tags are data responses arriving back at sockets.
func (s *System) onDelivered(src, dst int, tag int64) {
	if tag == 0 {
		return // background traffic, not ours
	}
	now := s.net.Cycle()
	if tag > 0 {
		if tag&1 == 1 {
			// Posted write data: service DRAM, done.
			s.pool.Nodes[dst].Access(now, uint64(tag)<<6, true)
			s.DRAMAccesses++
			return
		}
		// Read request: service DRAM, schedule the data response.
		rd, ok := s.reads[tag]
		if !ok {
			return
		}
		done := s.pool.Nodes[dst].Access(now, rd.addr, false)
		s.DRAMAccesses++
		s.pendingResp = append(s.pendingResp, pendingResp{
			readyAt: done,
			memNode: dst,
			cpuNode: s.cpus[rd.cpu].node,
			tag:     -tag,
		})
		return
	}
	// Data response back at the socket: retire the read.
	rd, ok := s.reads[-tag]
	if !ok {
		return
	}
	delete(s.reads, -tag)
	s.ReadLatencySum += now - rd.issued
	s.cpus[rd.cpu].outstanding--
	s.ReadsComplete++
}

// Run co-simulates for the given number of network cycles.
func (s *System) Run(cycles int64) {
	for c := int64(0); c < cycles; c++ {
		now := s.net.Cycle()
		s.injectResponses(now)
		s.issueReady(now)
		s.net.Run(1)
	}
}

// pollCycles is the slice RunToCompletion runs between completion polls.
const pollCycles = 32

// RunToCompletion runs until every socket drained its trace and every read
// returned, polling every pollCycles, or until maxCycles elapsed — never
// more: the last slice is clamped to the remaining budget. It returns the
// consumed cycles and whether the run completed. Sessions, which also
// need cancellation and mid-run events, drive Run slices themselves.
func (s *System) RunToCompletion(maxCycles int64) (int64, bool, error) {
	start := s.net.Cycle()
	for !s.allDone() {
		left := maxCycles - (s.net.Cycle() - start)
		if left <= 0 {
			return s.net.Cycle() - start, false, nil
		}
		s.Run(min(left, pollCycles))
		if s.net.Results().Deadlocked {
			return s.net.Cycle() - start, false, fmt.Errorf("memsys: network deadlocked")
		}
	}
	return s.net.Cycle() - start, true, nil
}

func (s *System) allDone() bool {
	for _, c := range s.cpus {
		if c.pos < len(c.ops) || c.outstanding > 0 {
			return false
		}
	}
	return len(s.pendingResp) == 0 && s.net.Results().InFlight == 0
}

// issueReady advances each socket's trace replay.
func (s *System) issueReady(now int64) {
	for i, c := range s.cpus {
		for c.pos < len(c.ops) {
			if c.readyAt > now {
				break
			}
			op := c.ops[c.pos]
			if op.Node == c.node {
				// Local access: DRAM only, no network trip.
				s.pool.Nodes[op.Node].Access(now, op.Addr, op.Write)
				s.DRAMAccesses++
				s.completeIssue(c, op)
				continue
			}
			if op.Write {
				// Posted write: odd tag, fire and forget.
				tag := s.allocTag(true)
				if s.net.Inject(c.node, op.Node, DataFlits, tag) == nil {
					s.WritesIssued++
				}
				s.completeIssue(c, op)
				continue
			}
			if c.outstanding >= s.window {
				break // window stall: replay pauses until a read returns
			}
			tag := s.allocTag(false)
			if s.net.Inject(c.node, op.Node, ReqFlits, tag) == nil {
				s.ReadsIssued++
				s.reads[tag] = outstandingRead{cpu: i, addr: op.Addr, issued: now}
				c.outstanding++
			}
			s.completeIssue(c, op)
		}
	}
}

// completeIssue advances the replay cursor and charges the compute gap to
// the next operation.
func (s *System) completeIssue(c *cpu, op trace.Op) {
	c.pos++
	c.totalInstr = op.Instr
	if c.pos < len(c.ops) {
		gap := trace.CycleOf(c.ops[c.pos].Instr) - trace.CycleOf(op.Instr)
		if gap < 0 {
			gap = 0
		}
		now := c.readyAt
		c.readyAt = now + gap
	}
}

// injectResponses sends DRAM responses whose service completed.
func (s *System) injectResponses(now int64) {
	kept := s.pendingResp[:0]
	for _, pr := range s.pendingResp {
		if pr.readyAt > now {
			kept = append(kept, pr)
			continue
		}
		if err := s.net.Inject(pr.memNode, pr.cpuNode, DataFlits, pr.tag); err != nil {
			// Cannot happen on a valid configuration; retire directly so
			// the run terminates.
			if rd, ok := s.reads[-pr.tag]; ok {
				delete(s.reads, -pr.tag)
				s.cpus[rd.cpu].outstanding--
			}
		}
	}
	s.pendingResp = kept
}

// allocTag allocates a correlation tag: odd tags are posted writes, even
// tags reads.
func (s *System) allocTag(write bool) int64 {
	s.nextTag += 2
	tag := s.nextTag
	if write {
		tag++
	}
	return tag
}

// Results summarizes a co-simulation.
type Results struct {
	Cycles           int64
	TotalInstrs      int64
	IPC              float64 // retired instructions per CPU cycle (2 GHz)
	NetworkPJ        float64
	DRAMPJ           float64
	TotalPJ          float64
	EDP              float64 // pJ x ns
	AvgPktCycles     float64
	AvgReadLatencyNs float64 // mean issue-to-retire read latency
	DRAMAccesses     int64
	ReadsComplete    int64
}

// Results computes the summary for the cycles elapsed so far.
func (s *System) Results() Results {
	cycles := s.net.Cycle()
	var instrs int64
	for _, c := range s.cpus {
		instrs += c.totalInstr
	}
	netRes := s.net.Results()
	var e energy.Model
	e.AddFlitHopsRadix(netRes.FlitHops, s.Ports)
	e.AddDRAMAccesses(s.DRAMAccesses)
	r := Results{
		Cycles:        cycles,
		TotalInstrs:   instrs,
		NetworkPJ:     e.NetworkPJ(),
		DRAMPJ:        e.DRAMPJ(),
		TotalPJ:       e.TotalPJ(),
		DRAMAccesses:  s.DRAMAccesses,
		ReadsComplete: s.ReadsComplete,
		AvgPktCycles:  netRes.AvgLatencyCycles(),
	}
	if s.ReadsComplete > 0 {
		r.AvgReadLatencyNs = float64(s.ReadLatencySum) / float64(s.ReadsComplete) * netsim.CycleNs
	}
	if cycles > 0 {
		cpuCycles := float64(cycles) * 6.4 // 2 GHz vs 312.5 MHz
		r.IPC = float64(instrs) / cpuCycles
		r.EDP = e.EDP(float64(cycles) * netsim.CycleNs)
	}
	return r
}

// Sim exposes the underlying network simulator for callers that drive
// the co-simulation themselves — sessions read the cycle counter between
// Run slices, and gate-scheduled ones need the mid-run hooks
// (SetEscapeRoute, SetLinkWake). Mutate it only between slices, on the
// simulating goroutine.
func (s *System) Sim() *netsim.Sim { return s.net }

// Done reports whether every socket drained its trace, every read
// returned, and the network is empty — the completion predicate
// RunToCompletion polls. Exported for callers that drive Run slices
// directly.
func (s *System) Done() bool { return s.allDone() }

// NetResults exposes the underlying network simulator's metric snapshot so
// callers can report network-side latency and throughput alongside the
// memory-system summary.
func (s *System) NetResults() netsim.Results { return s.net.Results() }

// OutstandingReads returns the reads currently in flight across all sockets
// — the memory-side occupancy reported by interval telemetry probes. Safe to
// call from netsim snapshot callbacks (which run on the simulating
// goroutine) or between Run slices.
func (s *System) OutstandingReads() int {
	total := 0
	for _, c := range s.cpus {
		total += c.outstanding
	}
	return total
}
