package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// columnDiff compares, for every (cur, dst) pair of g, the full
// Candidates and CandidatesInto lists against each other and
// FirstHopColumn against their head. It returns the first mismatch, if
// any, and how many pairs CandidatesInto decided by the node tie-break
// alone (its two best candidates tie on both score and MD).
func columnDiff(g *Greediest) (mismatch string, nodeTies int) {
	var col, pair Scratch
	n := len(g.Tables)
	for dst := 0; dst < n; dst++ {
		got := g.FirstHopColumn(&col, dst)
		for cur := 0; cur < n; cur++ {
			want := int32(-1)
			c := g.CandidatesInto(&pair, cur, dst)
			if len(c) > 0 {
				want = int32(c[0])
			}
			if len(c) > 1 && pair.cands[0].score == pair.cands[1].score && pair.cands[0].md == pair.cands[1].md {
				nodeTies++
			}
			if mismatch != "" {
				continue
			}
			if full := g.Candidates(cur, dst); !slices.Equal(full, c) {
				mismatch = fmt.Sprintf("Candidates(%d, %d) = %v, CandidatesInto = %v", cur, dst, full, c)
			} else if got[cur] != want {
				mismatch = fmt.Sprintf("FirstHopColumn(dst %d)[%d] = %d, CandidatesInto(%d, %d) = %v", dst, cur, got[cur], cur, dst, c)
			}
		}
	}
	return mismatch, nodeTies
}

// shuffledOut returns a copy of the adjacency with every row permuted, so
// table entries stop being in ascending node order.
func shuffledOut(out [][]int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	sh := make([][]int, len(out))
	for v, row := range out {
		sh[v] = append([]int(nil), row...)
		rng.Shuffle(len(sh[v]), func(i, j int) { sh[v][i], sh[v][j] = sh[v][j], sh[v][i] })
	}
	return sh
}

// TestFirstHopColumnMatchesCandidates is the column kernel's exactness
// contract: on every build the simulator meets, each router's column entry
// is CandidatesInto's first candidate, or -1 exactly where it has none.
func TestFirstHopColumnMatchesCandidates(t *testing.T) {
	paper := func(n int) *topology.StringFigure {
		sf, err := topology.NewPaperSF(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	s2, err := topology.NewS2(128, 4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := topology.NewStringFigure(topology.Config{N: 128, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	noLookahead := NewGreediest(paper(256), 0)
	noLookahead.Lookahead = false
	q256 := paper(256)
	shuffled := NewGreediestOver(q256, 7, shuffledOut(q256.OutNeighbors(), 5))
	cases := []struct {
		name string
		g    *Greediest
		ties bool // the build must exercise the node tie-break
	}{
		{"sf-n16", NewGreediest(paper(16), 0), false},
		{"sf-n64", NewGreediest(paper(64), 0), false},
		{"sf-n256", NewGreediest(paper(256), 0), false},
		{"sf-n1024", NewGreediest(paper(1024), 0), false},
		{"s2-n128", NewGreediest(s2, 0), false},
		{"clockwise-n128", NewGreediest(uni, 0), false},
		{"7bit-n256", NewGreediest(q256, 7), true},
		{"7bit-n256-shuffled-entries", shuffled, true},
		{"no-lookahead-n256", noLookahead, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "clockwise-n128" && c.g.Metric != Clockwise {
				t.Fatalf("uni-directional build routes with %v", c.g.Metric)
			}
			mismatch, ties := columnDiff(c.g)
			if mismatch != "" {
				t.Fatal(mismatch)
			}
			if c.ties && ties == 0 {
				t.Error("no pair was decided by the node tie-break; the case proves nothing about it")
			}
		})
	}
}
