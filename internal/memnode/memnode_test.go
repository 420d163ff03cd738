package memnode

import (
	"testing"
	"testing/quick"
)

func TestPaperTiming(t *testing.T) {
	tm := PaperTiming()
	// ceil(12/3.2)=4, ceil(6/3.2)=2, ceil(14/3.2)=5, ceil(33/3.2)=11
	if tm.TRCD != 4 || tm.TCL != 2 || tm.TRP != 5 || tm.TRAS != 11 {
		t.Errorf("PaperTiming = %+v, want {4 2 5 11}", tm)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	n, err := NewNode(0, 16, PaperTiming())
	if err != nil {
		t.Fatal(err)
	}
	// First access: bank precharged -> tRCD + tCL.
	done1 := n.Access(0, 0x1000, false)
	if done1 != 6 {
		t.Errorf("cold access done at %d, want tRCD+tCL=6", done1)
	}
	// Same row, same bank (banks interleave on addr[9:6], 16 banks x 64 B,
	// so +1024 stays in bank 0), after bank ready: tCL only.
	done2 := n.Access(done1, 0x1400, false)
	if done2-done1 != 2 {
		t.Errorf("row hit took %d cycles, want tCL=2", done2-done1)
	}
	if n.RowHits != 1 || n.RowMisses != 1 {
		t.Errorf("row stats hits=%d misses=%d, want 1/1", n.RowHits, n.RowMisses)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	n, err := NewNode(0, 16, PaperTiming())
	if err != nil {
		t.Fatal(err)
	}
	done1 := n.Access(0, 0x0, false)
	// Different row, same bank: bank 0 rows differ by rowShift+bankBits.
	conflictAddr := uint64(1) << (rowShift + 4)
	done2 := n.Access(done1, conflictAddr, false)
	// Must pay at least tRP + tRCD + tCL after respecting tRAS from the
	// first activate (at cycle 0): precharge at max(done1, tRAS)=11, then
	// +5 +4 +2 = 22.
	if done2 < done1+PaperTiming().TRP+PaperTiming().TRCD+PaperTiming().TCL {
		t.Errorf("row conflict done at %d, too fast", done2)
	}
}

func TestBankParallelism(t *testing.T) {
	n, err := NewNode(0, 16, PaperTiming())
	if err != nil {
		t.Fatal(err)
	}
	// Two accesses to different banks at the same time both finish at 6.
	d1 := n.Access(0, 0x0, false)
	d2 := n.Access(0, 0x40, false) // next line -> next bank
	if d1 != 6 || d2 != 6 {
		t.Errorf("parallel banks done at %d/%d, want 6/6", d1, d2)
	}
	// Same bank back-to-back serializes.
	d3 := n.Access(0, 0x0, false)
	if d3 <= d1 {
		t.Errorf("same-bank access done at %d, should serialize after %d", d3, d1)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(0, 0, PaperTiming()); err == nil {
		t.Error("0 banks should fail")
	}
	if _, err := NewNode(0, 12, PaperTiming()); err == nil {
		t.Error("non-power-of-two banks should fail")
	}
}

func TestAddressMapInterleaving(t *testing.T) {
	m := NewAddressMap(8)
	if m.NodeOf(0) != 0 {
		t.Error("address 0 should map to node 0")
	}
	if m.NodeOf(4096) != 1 {
		t.Error("second page should map to node 1")
	}
	if m.NodeOf(8*4096) != 0 {
		t.Error("interleave should wrap")
	}
	// Within a page, node stays constant.
	if m.NodeOf(4096) != m.NodeOf(4096+4095) {
		t.Error("node changed within a page")
	}
}

func TestAddressMapCoversAllNodes(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw)%100
		m := NewAddressMap(n)
		seen := make(map[int]bool)
		for p := uint64(0); p < uint64(n); p++ {
			v := m.NodeOf(p * 4096)
			if v < 0 || v >= n {
				return false
			}
			seen[v] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPool(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	node, done := p.Access(0, 4096, true)
	if node != 1 {
		t.Errorf("access routed to node %d, want 1", node)
	}
	if done <= 0 {
		t.Errorf("done = %d, want > 0", done)
	}
	if p.Map.CapacityBytes() != 4*NodeCapacityBytes {
		t.Errorf("capacity = %d", p.Map.CapacityBytes())
	}
	if p.Nodes[1].Writes != 1 {
		t.Errorf("write not recorded on node 1")
	}
}
