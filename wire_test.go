package stringfigure

// Wire-codec tests: SessionConfig and the serializable forms of Point and
// Result must round-trip bit-exactly, because distributed sweeps promise
// Results identical to in-process runs. Internal test package — the wire
// structs are deliberately unexported.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/design"
)

// TestWirePointRoundTrip covers what TestWireRoundTripByReflection's
// filled synthetic point does not: a trace point, the refusal of a
// workload that carries code, and an unknown wire kind.
func TestWirePointRoundTrip(t *testing.T) {
	p := Point{Workload: TraceWorkload{Workload: "redis"}}
	wp, ok := pointToWire(p)
	if !ok {
		t.Fatal("trace point not serializable")
	}
	b, err := encodeWire(wp)
	if err != nil {
		t.Fatal(err)
	}
	var back wirePoint
	if err := decodeWire(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.point()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("trace point round-trip:\ngot  %+v\nwant %+v", got, p)
	}
	// FuncWorkload carries code and must be refused, not mangled.
	if _, ok := pointToWire(Point{Workload: FuncWorkload{Label: "f"}}); ok {
		t.Error("FuncWorkload serialized; it must stay in-process")
	}
	if _, err := (wirePoint{Kind: "martian"}).point(); err == nil {
		t.Error("unknown wire kind accepted")
	}
}

// TestWireResultRoundTrip covers the Result error, which travels as text
// (TestWireRoundTripByReflection covers every other field): canonical
// context errors are restored so errors.Is keeps working across the wire,
// and any other error keeps its text.
func TestWireResultRoundTrip(t *testing.T) {
	for _, sent := range []error{context.Canceled, errors.New("remote session exploded")} {
		b, err := encodeWire(resultToWire(Result{Workload: "grep", Err: sent}))
		if err != nil {
			t.Fatal(err)
		}
		var wr wireResult
		if err := decodeWire(b, &wr); err != nil {
			t.Fatal(err)
		}
		got := wr.result().Err
		if sent == context.Canceled && !errors.Is(got, context.Canceled) {
			t.Errorf("context.Canceled did not survive the wire: %v", got)
		}
		if got == nil || got.Error() != sent.Error() {
			t.Errorf("error text mangled: got %v, want %q", got, sent.Error())
		}
	}
}

func TestNetworkSpecRebuild(t *testing.T) {
	// A network rebuilt from its spec must expose the identical topology
	// and routes (the foundation of remote bit-identical execution),
	// including a snapshotted alive mask applied via SetMounted.
	const n = 48
	same := func(t *testing.T, a, b *Network) {
		t.Helper()
		for r := 0; r < a.Routers(); r++ {
			if x, y := a.OutNeighbors(r), b.OutNeighbors(r); !reflect.DeepEqual(x, y) {
				t.Fatalf("router %d adjacency differs after rebuild:\n%v\n%v", r, x, y)
			}
		}
		for src := 0; src < n; src++ {
			if a.Alive(src) != b.Alive(src) {
				t.Fatalf("node %d liveness differs after rebuild", src)
			}
			for dst := 0; dst < n; dst++ {
				pa, ea := a.Route(src, dst)
				pb, eb := b.Route(src, dst)
				ma, mb := a.MD(src, dst), b.MD(src, dst)
				if fmt.Sprint(ea) != fmt.Sprint(eb) || !reflect.DeepEqual(pa, pb) || ma != mb {
					t.Fatalf("pair %d -> %d differs after rebuild: route %v (%v) vs %v (%v), MD %v vs %v",
						src, dst, pa, ea, pb, eb, ma, mb)
				}
			}
		}
	}
	variants := map[string][]Option{
		"sf-unidirectional": {Unidirectional()},
		"sf-noshortcuts":    {NoShortcuts()},
	}
	for _, kind := range Designs() {
		variants[kind] = []Option{WithDesign(kind)}
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			net := mustNew(t, append(opts, WithNodes(n), WithSeed(11))...)
			spec := net.spec()
			if spec.Alive != nil {
				t.Error("ungated spec carries an alive mask")
			}
			rebuilt, err := spec.build(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.d.Spec != net.d.Spec {
				t.Fatalf("rebuilt spec %+v, want %+v", rebuilt.d.Spec, net.d.Spec)
			}
			same(t, net, rebuilt)
			if net.cur.Load().net == nil {
				return // only the sf family reconfigures
			}
			// The rebuilt network gates as the original does, and the
			// gated spec carries the alive mask that reproduces it.
			for _, v := range []int{5, 17} {
				if ea, eb := net.GateOff(v), rebuilt.GateOff(v); fmt.Sprint(ea) != fmt.Sprint(eb) {
					t.Fatalf("GateOff(%d): %v vs %v after rebuild", v, ea, eb)
				}
			}
			same(t, net, rebuilt)
			spec = net.spec()
			if spec.Alive == nil {
				t.Fatal("gated network spec lost its alive mask")
			}
			mounted, err := spec.build(nil)
			if err != nil {
				t.Fatal(err)
			}
			same(t, net, mounted)
		})
	}
}

// TestNetworkStoreBuildsOncePerKey pins the process's network store: each
// case runs its callers on an empty store, and they must leave exactly one
// entry per key they used. The first jobs of a sweep all miss at once;
// they must end up on one Network (one table set, one shared route cache),
// not on a private build each.
func TestNetworkStoreBuildsOncePerKey(t *testing.T) {
	spec := networkSpec{Spec: design.Spec{Kind: "sf", N: 64, Seed: 7}}
	gated := networkSpec{Spec: spec.Spec, Alive: make([]bool, 64)}
	for i := range gated.Alive {
		gated.Alive[i] = i != 5
	}
	other := &Cluster{} // a key only: nothing is swept on it
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) []netKey // returns the keys it used
	}{
		{"concurrent getters", func(t *testing.T) []netKey { return getShared(t, spec, nil) }},
		{"different cluster", func(t *testing.T) []netKey {
			return append(getShared(t, spec, nil), getShared(t, spec, other)...)
		}},
		{"gated mask", func(t *testing.T) []netKey {
			return append(getShared(t, spec, nil), getShared(t, gated, nil)...)
		}},
		{"two workers and two service jobs", serveTwoJobs},
		{"submitted and normal spec", serveJobAndWorkerSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			netStore.mu.Lock()
			netStore.nets = nil
			netStore.mu.Unlock()
			want := tc.run(t)
			netStore.mu.Lock()
			defer netStore.mu.Unlock()
			for _, k := range want {
				if netStore.nets[k] == nil {
					t.Errorf("no entry for %+v", k)
				}
			}
			if len(netStore.nets) != len(want) {
				t.Errorf("store holds %d entries, want %d", len(netStore.nets), len(want))
			}
		})
	}
}

// getShared takes the network of (s, c) from the store on eight
// goroutines at once: all must get one *Network, with the spec's alive
// mask.
func getShared(t *testing.T, s networkSpec, c *Cluster) []netKey {
	nets := make([]*Network, 8)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := sharedNetwork(s, c)
			if err != nil {
				t.Error(err)
			}
			nets[i] = n
		}()
	}
	wg.Wait()
	for i, n := range nets {
		if n == nil || n != nets[0] {
			t.Fatalf("get %d returned network %p, get 0 returned %p", i, n, nets[0])
		}
	}
	for v, a := range s.Alive {
		if nets[0].Alive(v) != a {
			t.Fatalf("node %d alive %v, the spec says %v", v, !a, a)
		}
	}
	return []netKey{s.key(c)}
}
