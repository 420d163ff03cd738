package design

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/topology"
)

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range Names {
		n := 128
		d, err := Build(Spec{Kind: kind, N: n, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if d.Spec.Kind != kind {
			t.Errorf("%s: Spec.Kind = %q", kind, d.Spec.Kind)
		}
		if d.N != n {
			t.Errorf("%s: N = %d, want %d", kind, d.N, n)
		}
		if d.Routers < 1 || len(d.Out) != d.Routers {
			t.Errorf("%s: routers %d, out %d", kind, d.Routers, len(d.Out))
		}
		if !d.Graph.StronglyConnected() {
			t.Errorf("%s: not strongly connected", kind)
		}
		if d.Alg == nil {
			t.Errorf("%s: no routing algorithm", kind)
		}
		hosted := 0
		for r, nodes := range d.RouterNodes {
			for _, v := range nodes {
				if d.NodeRouter(v) != r {
					t.Errorf("%s: RouterNodes inverse broken at router %d node %d", kind, r, v)
				}
			}
			hosted += len(nodes)
		}
		if hosted != n {
			t.Errorf("%s: RouterNodes hosts %d nodes, want %d", kind, hosted, n)
		}
		for v := 0; v < n; v++ {
			r := d.NodeRouter(v)
			if r < 0 || r >= d.Routers {
				t.Fatalf("%s: node %d -> invalid router %d", kind, v, r)
			}
		}
		for r := 0; r < d.Routers; r++ {
			if deg := len(d.Out[r]); deg > d.PortBudget {
				t.Errorf("%s: router %d degree %d exceeds port budget %d", kind, r, deg, d.PortBudget)
			}
		}
		cfg := d.NetCfg(1)
		if cfg.Alg == nil {
			t.Errorf("%s: NetCfg has no routing algorithm", kind)
		}
	}
	if _, err := Build(Spec{Kind: "nope", N: 16, Seed: 1}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind error = %v, want ErrUnknownKind", err)
	}
}

func TestBuildOptionValidation(t *testing.T) {
	for _, bad := range []Spec{
		{Kind: "dm", N: 16, Ports: 6},              // fixed port layout
		{Kind: "fb", N: 128, Unidirectional: true}, // wire variants are sf only
		{Kind: "s2", N: 16, NoShortcuts: true},
		{N: 16, Ports: 1}, // topology.Config.Validate
	} {
		if _, err := Build(bad); err == nil {
			t.Errorf("Build(%+v) should fail", bad)
		}
	}
	d, err := Build(Spec{N: 16, Seed: 1}) // empty kind defaults to sf
	if err != nil || d.Spec.Kind != "sf" {
		t.Fatalf("default kind: %v, %v", d, err)
	}
}

func TestODMWidthReasonable(t *testing.T) {
	w, err := ODMWidth(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 8 {
		t.Errorf("ODMWidth(64) = %d, want in [1,8]", w)
	}
}

// TestODMWidthCapIsExact holds ODMWidth, whose cuts stop at maxODMWidth
// times the mesh bandwidth, equal to the width of Section V's definition —
// every cut's flow computed in full — at every paper scale and seeds 1-3.
func TestODMWidthCapIsExact(t *testing.T) {
	for _, n := range PaperScales {
		m, err := topology.NewMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		meshBW := MeshGeometricBisection(m)
		for seed := int64(1); seed <= 3; seed++ {
			sf, err := topology.NewPaperSF(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			sfBW := sf.Graph().BisectionBandwidth(5, rand.New(rand.NewSource(seed)), math.Inf(1))
			want := min(max(int(math.Round(sfBW/meshBW)), 1), maxODMWidth)
			got, err := ODMWidth(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("ODMWidth(%d, %d) = %d, uncapped bisection %v / mesh %v gives %d", n, seed, got, sfBW, meshBW, want)
			}
		}
	}
}

func TestDeterministicRebuild(t *testing.T) {
	for _, kind := range Names {
		a, err := Build(Spec{Kind: kind, N: 64, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// The recorded spec is the build input in normal form: it
		// reproduces the design and records itself again.
		b, err := Build(a.Spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a.Spec.Kind != kind || b.Spec != a.Spec {
			t.Fatalf("%s: recorded spec %+v rebuilds as %+v", kind, a.Spec, b.Spec)
		}
		if !reflect.DeepEqual(a.Out, b.Out) {
			t.Fatalf("%s: adjacency differs on rebuild", kind)
		}
	}
}

// BenchmarkODMWidth times Section V's width search at the largest paper
// scale: an N=1296 String Figure build, its random-cut bisection and the
// mesh's geometric cut.
func BenchmarkODMWidth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ODMWidth(1296, 1); err != nil {
			b.Fatal(err)
		}
	}
}
