package routing

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestTableAddAndLookup builds a table over a hand-made adjacency and
// reads its one- and two-hop entries back.
func TestTableAddAndLookup(t *testing.T) {
	out := [][]int{
		0: {1},
		1: {0, 2},
		2: {},
	}
	tb := BuildTable(0, out)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if !tb.HasOneHop(1) {
		t.Error("node 1 should be a one-hop neighbor")
	}
	if tb.HasOneHop(2) {
		t.Error("node 2 is two-hop, not one-hop")
	}
	want := []Entry{{Node: 1, Via: -1}, {Node: 2, Via: 1, TwoHop: true}}
	if got := tb.Entries(); !slices.Equal(got, want) {
		t.Errorf("Entries = %v, want %v", got, want)
	}
}

func TestTableSizeBound(t *testing.T) {
	// Section IV: each routing table has at most p(p+1) entries.
	for _, cfg := range []topology.Config{
		{N: 64, Ports: 4, Seed: 1},
		{N: 300, Ports: 8, Seed: 2},
		{N: 1296, Ports: 8, Seed: 3},
	} {
		sf, err := topology.NewStringFigure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGreediest(sf, 0)
		bound := cfg.Ports * (cfg.Ports + 1)
		for v, tb := range g.Tables {
			if tb.Len() > bound {
				t.Errorf("cfg %+v: node %d table has %d entries, bound %d",
					cfg, v, tb.Len(), bound)
			}
		}
	}
}

func TestBuildTablesTwoHopConsistency(t *testing.T) {
	out := [][]int{
		1: {2},
		0: {1, 2},
		2: {0},
	}
	tables := BuildTables(3, out)
	// Node 0: one-hop {1,2}; two-hop via 1 -> {2}, via 2 -> {} (0 excluded).
	tb := tables[0]
	if !tb.HasOneHop(1) || !tb.HasOneHop(2) {
		t.Error("node 0 missing one-hop entries")
	}
	found := false
	tb.visitTwoHop(func(node, via int) {
		if node == 2 && via == 1 {
			found = true
		}
		if node == 0 {
			t.Error("table contains self as two-hop neighbor")
		}
	})
	if !found {
		t.Error("node 0 missing two-hop entry 2 via 1")
	}
}

func TestMeshRouterAlgorithm(t *testing.T) {
	m, err := topology.NewMesh(16)
	if err != nil {
		t.Fatal(err)
	}
	var alg Algorithm = &MeshRouter{Mesh: m}
	if alg.Name() == "" {
		t.Error("empty name")
	}
	if c := alg.Candidates(0, 15); len(c) == 0 {
		t.Error("no candidates across mesh")
	}
	if c := alg.Candidates(5, 5); c != nil {
		t.Error("candidates at destination should be nil")
	}
}

func TestButterflyRouterAlgorithm(t *testing.T) {
	fb, err := topology.NewFlattenedButterfly(256)
	if err != nil {
		t.Fatal(err)
	}
	var alg Algorithm = &ButterflyRouter{B: fb}
	g := fb.Graph()
	for src := 0; src < fb.Routers(); src += 13 {
		for dst := 0; dst < fb.Routers(); dst += 17 {
			if src == dst {
				continue
			}
			cands := alg.Candidates(src, dst)
			if len(cands) == 0 {
				t.Fatalf("no candidates %d->%d", src, dst)
			}
			for _, c := range cands {
				if !g.HasEdge(src, c) {
					t.Fatalf("candidate %d->%d is not a link", src, c)
				}
			}
		}
	}
}

func TestTableRouterShortestPaths(t *testing.T) {
	// Ring of 6, directed both ways: table router must find 3-hop max paths.
	out := make([][]int, 6)
	for i := 0; i < 6; i++ {
		out[i] = []int{(i + 1) % 6, (i + 5) % 6}
	}
	tr := NewTableRouter("test", out)
	if tr.Name() != "test" {
		t.Error("name mismatch")
	}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst {
				if tr.Candidates(src, dst) != nil {
					t.Error("candidates at destination not nil")
				}
				continue
			}
			cur := src
			hops := 0
			for cur != dst {
				cands := tr.Candidates(cur, dst)
				if len(cands) == 0 {
					t.Fatalf("stuck at %d toward %d", cur, dst)
				}
				cur = cands[0]
				hops++
				if hops > 3 {
					t.Fatalf("path %d->%d longer than diameter", src, dst)
				}
			}
		}
	}
	// Opposite nodes have two equally short first hops.
	if c := tr.Candidates(0, 3); len(c) != 2 {
		t.Errorf("Candidates(0,3) = %v, want both directions", c)
	}
}
