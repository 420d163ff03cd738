package energy

import (
	"math"
	"testing"
)

func TestNetworkEnergy(t *testing.T) {
	var m Model
	m.AddFlitHopsRadix(10, 8) // the reference radix
	want := 10.0 * 128 * 5
	if got := m.NetworkPJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("NetworkPJ = %v, want %v", got, want)
	}
	if m.DRAMPJ() != 0 {
		t.Error("DRAM energy should be zero")
	}
}

func TestDRAMEnergy(t *testing.T) {
	var m Model
	m.AddDRAMAccesses(2)
	want := 2.0 * 512 * 12
	if got := m.DRAMPJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("DRAMPJ = %v, want %v", got, want)
	}
}

func TestTotalsAndEDP(t *testing.T) {
	var m Model
	m.AddFlitHopsRadix(1, 8)
	m.AddDRAMAccesses(1)
	total := 128*5.0 + 512*12.0
	if got := m.TotalPJ(); math.Abs(got-total) > 1e-9 {
		t.Errorf("TotalPJ = %v, want %v", got, total)
	}
	if got := m.EDP(10); math.Abs(got-total*10) > 1e-9 {
		t.Errorf("EDP = %v, want %v", got, total*10)
	}
}
