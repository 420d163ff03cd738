package experiments

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/stats"
)

// TestGoldenStaticFigures pins the static figures — Figure 5, Figure 9(a),
// Table II with the connection bound, and the Section V bisection table —
// at sfexp -quick's inputs (seed 1) against
// testdata/golden_static_figures.json. Every value is a design build, a
// BFS sample or a max-flow, so a faster build or flow kernel must leave
// the file untouched; rewrite it only on purpose:
//
//	go test ./internal/experiments -run TestGoldenStaticFigures -update
func TestGoldenStaticFigures(t *testing.T) {
	got := map[string]*stats.Series{}
	add := func(name string, s *stats.Series, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = s
	}
	s, err := Fig5(nil, 2, 48)
	add("Fig5", s, err)
	s, err = Fig9a(nil, 48, 1)
	add("Fig9a", s, err)
	s, err = Table2(nil)
	add("Table2", s, err)
	s, err = ConnectionBound(nil, 1)
	add("ConnectionBound", s, err)
	s, err = Bisection(nil, 10, 1)
	add("Bisection", s, err)
	golden.JSON(t, "testdata/golden_static_figures.json", got)
}
