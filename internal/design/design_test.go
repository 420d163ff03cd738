package design

import (
	"errors"
	"testing"
)

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range Names {
		n := 128
		d, err := BuildKind(kind, n, 1)
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
	if _, err := BuildKind("nope", 16, 1); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind error = %v, want ErrUnknownKind", err)
	}
}

func TestBuildOptionValidation(t *testing.T) {
	if _, err := Build(Spec{Kind: "dm", N: 16, Ports: 6}); err == nil {
		t.Error("Ports override on dm should fail")
	}
	if _, err := Build(Spec{Kind: "fb", N: 128, Unidirectional: true}); err == nil {
		t.Error("Unidirectional on fb should fail")
	}
	if _, err := Build(Spec{Kind: "s2", N: 16, NoShortcuts: true}); err == nil {
		t.Error("NoShortcuts on s2 should fail")
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

func TestDeterministicRebuild(t *testing.T) {
	for _, kind := range Names {
		a, err := BuildKind(kind, 64, 7)
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
		if len(a.Out) != len(b.Out) {
			t.Fatalf("%s: router counts differ", kind)
		}
		for r := range a.Out {
			if len(a.Out[r]) != len(b.Out[r]) {
				t.Fatalf("%s: adjacency differs at router %d", kind, r)
			}
			for i := range a.Out[r] {
				if a.Out[r][i] != b.Out[r][i] {
					t.Fatalf("%s: adjacency differs at router %d", kind, r)
				}
			}
		}
	}
}
