package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/memnode"
)

// Op is one post-cache memory-network operation.
type Op struct {
	// Instr is the absolute instruction ID at which the operation issues
	// (the paper's timestamp basis).
	Instr int64
	Addr  uint64
	Node  int // owning memory node
	Write bool
	// Writeback marks a dirty-eviction write (fire-and-forget), as opposed
	// to a demand write.
	Writeback bool
}

// Trace is a generated workload trace.
type Trace struct {
	Workload string
	Ops      []Op
	// RawAccesses is the pre-cache access count that produced the trace.
	RawAccesses int64
	// MissRate is the cache hierarchy's overall miss rate.
	MissRate float64
}

// AvgCPI is the average cycles-per-instruction used to convert instruction
// IDs into time, following the paper's own approximation ("we can multiply
// the instruction IDs by an average CPI number").
const AvgCPI = 0.75

// CPUClockGHz is the core clock of Table I.
const CPUClockGHz = 2.0

// WarmupAccesses is the number of raw accesses run through the hierarchy
// before collection starts, mirroring the paper's "after workload
// initialization": it fills the 32 MB L3 (524 288 lines) so that dirty
// evictions — and therefore write-back traffic — reach steady state. The
// warm-up goes through cache.Hierarchy.Warm: every access runs through
// L1, and L2 and L3 replay a warm-up L1 miss only in the sets collection
// later reads, which leaves exactly the state an eager warm-up would. At
// N=128 and 400 ops, 12% of the logged warm-up misses of the eight Table
// IV workloads are replayed (testdata/golden_synthesis_counts.json).
const WarmupAccesses = 700_000

// Generate produces a trace of exactly ops post-cache operations (the paper
// collects 100,000) by running the workload model through a fresh paper
// cache hierarchy and mapping line addresses to memory nodes. Collection
// starts after WarmupAccesses raw accesses. Generate is the pure, uncached
// kernel: every call synthesizes on a hierarchy of its own, and the caller
// owns the result. Sessions go through Shared.
func Generate(w Workload, m memnode.AddressMap, ops int, seed int64) (*Trace, error) {
	return generate(cache.NewPaperHierarchy(), w, m, ops, seed)
}

// generate is Generate on a caller-supplied paper hierarchy, which must be
// fresh or Reset.
func generate(h *cache.Hierarchy, w Workload, m memnode.AddressMap, ops int, seed int64) (*Trace, error) {
	if ops <= 0 {
		return nil, fmt.Errorf("trace: ops must be positive, got %d", ops)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Workload: w.Name(), Ops: make([]Op, 0, ops)}
	var instr int64
	for i := 0; i < WarmupAccesses; i++ {
		a := w.Next(rng)
		t := cache.Read
		if a.Write {
			t = cache.Write
		}
		h.Warm(a.Addr, t)
	}
	// Cap raw accesses to avoid infinite loops with degenerate (fully
	// cache-resident) models.
	maxRaw := int64(ops) * 10000
	for len(tr.Ops) < ops && tr.RawAccesses < maxRaw {
		a := w.Next(rng)
		instr += a.Instr
		tr.RawAccesses++
		t := cache.Read
		if a.Write {
			t = cache.Write
		}
		res := h.Access(a.Addr, t)
		if res.MemRead {
			tr.Ops = append(tr.Ops, Op{
				Instr: instr,
				Addr:  a.Addr,
				Node:  m.NodeOf(a.Addr),
				Write: false, // demand fetch is a read even for write misses
			})
		}
		if res.HasWriteback && len(tr.Ops) < ops {
			tr.Ops = append(tr.Ops, Op{
				Instr:     instr,
				Addr:      res.WritebackAddr,
				Node:      m.NodeOf(res.WritebackAddr),
				Write:     true,
				Writeback: true,
			})
		}
	}
	if len(tr.Ops) < ops {
		return nil, fmt.Errorf("trace: workload %s produced only %d/%d memory ops in %d raw accesses",
			w.Name(), len(tr.Ops), ops, tr.RawAccesses)
	}
	tr.MissRate = h.MissRate()
	return tr, nil
}

// CycleOf converts an instruction ID to a network-clock cycle: instructions
// x CPI gives CPU cycles at 2 GHz; the network runs at 312.5 MHz (3.2 ns),
// a 6.4x ratio.
func CycleOf(instrID int64) int64 {
	cpuCycles := float64(instrID) * AvgCPI
	return int64(cpuCycles / (CPUClockGHz * 3.2))
}
