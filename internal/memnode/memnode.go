package memnode

import (
	"fmt"
)

// Table I DRAM timing in nanoseconds.
const (
	TRCDNs = 12.0
	TCLNs  = 6.0
	TRPNs  = 14.0
	TRASNs = 33.0
)

// NodeCapacityBytes is the capacity of one memory node (8 GB stack).
const NodeCapacityBytes = 8 << 30

// Timing converts the Table I parameters to network-clock cycles (3.2 ns).
type Timing struct {
	TRCD, TCL, TRP, TRAS int64
}

// PaperTiming returns Table I timing quantized to 3.2 ns network cycles
// (ceiling, as a slower-is-safe hardware controller would).
func PaperTiming() Timing {
	c := func(ns float64) int64 {
		cycles := int64(ns / 3.2)
		if float64(cycles)*3.2 < ns {
			cycles++
		}
		return cycles
	}
	return Timing{TRCD: c(TRCDNs), TCL: c(TCLNs), TRP: c(TRPNs), TRAS: c(TRASNs)}
}

// bank is one DRAM bank with an open-page row buffer.
type bank struct {
	openRow int64 // -1 when precharged
	readyAt int64 // cycle when the bank can accept the next command
	actAt   int64 // cycle of the last activate (for tRAS)
}

// Node is one memory stack: a bank array plus service statistics.
type Node struct {
	ID       int
	timing   Timing
	banks    []bank
	bankBits uint
	bankMask uint64

	Reads     int64
	Writes    int64
	RowHits   int64
	RowMisses int64
	BusySum   int64 // total service latency accumulated (cycles)
}

// rowShift is the log2 of the row size granularity above the bank bits:
// 64 B lines (6 bits) times 32 lines per 2 KiB row (5 bits).
const rowShift = 6 + 5

// NewNode builds a memory node with the given bank count (HMC 2.1 exposes
// 16 banks per stack layer; 32 total is the common simulator setting).
func NewNode(id, banks int, t Timing) (*Node, error) {
	if banks < 1 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("memnode: banks must be a positive power of two, got %d", banks)
	}
	bits := uint(0)
	for b := banks; b > 1; b >>= 1 {
		bits++
	}
	n := &Node{ID: id, timing: t, banks: make([]bank, banks), bankMask: uint64(banks - 1), bankBits: bits}
	for i := range n.banks {
		n.banks[i].openRow = -1
	}
	return n, nil
}

// Access services a read or write of the line at addr starting no earlier
// than `now` (cycles) and returns the cycle when data is available (read) or
// committed (write). Row-buffer policy: open page.
func (n *Node) Access(now int64, addr uint64, isWrite bool) int64 {
	b := &n.banks[(addr>>6)&n.bankMask]
	row := int64(addr >> (rowShift + n.bankBits))
	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	var done int64
	switch {
	case b.openRow == row:
		// Row hit: CAS only.
		n.RowHits++
		done = start + n.timing.TCL
	case b.openRow < 0:
		// Bank precharged: activate + CAS.
		n.RowMisses++
		b.actAt = start
		done = start + n.timing.TRCD + n.timing.TCL
	default:
		// Row conflict: precharge (respecting tRAS) + activate + CAS.
		n.RowMisses++
		preAt := start
		if earliest := b.actAt + n.timing.TRAS; earliest > preAt {
			preAt = earliest
		}
		actAt := preAt + n.timing.TRP
		b.actAt = actAt
		done = actAt + n.timing.TRCD + n.timing.TCL
	}
	b.openRow = row
	b.readyAt = done
	if isWrite {
		n.Writes++
	} else {
		n.Reads++
	}
	n.BusySum += done - now
	return done
}

// AddressMap distributes physical addresses across memory nodes. The paper
// distributes data "among the memory nodes based on their physical address";
// we interleave at page granularity so consecutive pages land on different
// nodes, which is the standard choice for memory pools.
type AddressMap struct {
	Nodes      int
	Interleave uint64 // bytes per interleave chunk (default 4 KiB pages)
}

// NewAddressMap builds a page-interleaved map over n nodes.
func NewAddressMap(n int) AddressMap {
	return AddressMap{Nodes: n, Interleave: 4096}
}

// NodeOf returns the memory node that owns addr.
func (m AddressMap) NodeOf(addr uint64) int {
	if m.Nodes <= 0 {
		return 0
	}
	return int((addr / m.Interleave) % uint64(m.Nodes))
}

// CapacityBytes returns the pool capacity of the whole network.
func (m AddressMap) CapacityBytes() uint64 {
	return uint64(m.Nodes) * NodeCapacityBytes
}

// Pool is the collection of all memory nodes in the network.
type Pool struct {
	Nodes []*Node
	Map   AddressMap
}

// NewPool builds n memory nodes with paper timing and 32 banks each.
func NewPool(n int) (*Pool, error) {
	p := &Pool{Map: NewAddressMap(n)}
	t := PaperTiming()
	for i := 0; i < n; i++ {
		node, err := NewNode(i, 32, t)
		if err != nil {
			return nil, err
		}
		p.Nodes = append(p.Nodes, node)
	}
	return p, nil
}

// Access routes the address to its owning node and services it.
func (p *Pool) Access(now int64, addr uint64, isWrite bool) (node int, done int64) {
	v := p.Map.NodeOf(addr)
	return v, p.Nodes[v].Access(now, addr, isWrite)
}
