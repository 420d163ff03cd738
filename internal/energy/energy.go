package energy

// Table I parameters.
const (
	NetworkPJPerBitHop = 5.0
	DRAMPJPerBit       = 12.0
	// FlitBits is the width of one flit: the CPU-memory channel has 128
	// lanes per direction (Table I), so one flit carries 128 bits.
	FlitBits = 128
	// CacheLineBits is the payload of one memory access (64 B line).
	CacheLineBits = 512
)

// Model accumulates dynamic energy in picojoules.
type Model struct {
	networkPJ float64
	dramPJ    float64
}

// PJPerBitHopForRadix returns the per-bit-per-hop energy for routers of the
// given port count. The Table I figure (5 pJ/bit/hop) is calibrated to the
// String Figure 8-port router; crossbar and arbitration energy grow roughly
// linearly with radix, which is why the paper's Figure 12(b) shows the
// high-radix flattened-butterfly designs costing more per traversal despite
// fewer hops ("energy reduction in routing", Section VI). Half of the hop
// energy is modeled as radix-independent link/SerDes energy, half as
// radix-proportional router energy.
func PJPerBitHopForRadix(ports int) float64 {
	if ports <= 0 {
		ports = 8
	}
	return NetworkPJPerBitHop * (0.5 + 0.5*float64(ports)/8.0)
}

// AddFlitHopsRadix books network energy for flit traversals through routers
// of the given radix.
func (m *Model) AddFlitHopsRadix(flitHops int64, ports int) {
	m.networkPJ += float64(flitHops) * FlitBits * PJPerBitHopForRadix(ports)
}

// AddDRAMAccesses books DRAM energy for reads+writes of whole cache lines.
func (m *Model) AddDRAMAccesses(accesses int64) {
	m.dramPJ += float64(accesses) * CacheLineBits * DRAMPJPerBit
}

// NetworkPJ returns accumulated network energy in pJ.
func (m *Model) NetworkPJ() float64 { return m.networkPJ }

// DRAMPJ returns accumulated DRAM energy in pJ.
func (m *Model) DRAMPJ() float64 { return m.dramPJ }

// TotalPJ returns total dynamic energy in pJ.
func (m *Model) TotalPJ() float64 { return m.networkPJ + m.dramPJ }

// EDP returns the energy-delay product given an execution time in
// nanoseconds: pJ x ns (lower is better), the Figure 9(b) metric.
func (m *Model) EDP(delayNs float64) float64 { return m.TotalPJ() * delayNs }
