package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// hasPointers reports whether a value of type t holds anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestFlitLayoutIsPointerFree pins the per-flit data layout: flits, lane
// and far records, the reference core's in-flight records, input units
// (with their inline buffers) and packets hold no pointers, so the GC never
// scans the arenas and slabs they live in, and each stays within its size
// (a lane record in 16 bytes, a unit in two 64-byte cache lines).
func TestFlitLayoutIsPointerFree(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{flit{}, 8},
		{laneRec{}, 16},
		{farRec{}, 32},
		{inflight{}, 16},
		{linkCost{}, 16},
		{inputUnit{}, 128},
		{packet{}, 0}, // pointer-free; its size is not pinned
	} {
		typ := reflect.TypeOf(c.v)
		if hasPointers(typ) {
			t.Errorf("%s holds a pointer: the arenas of %s become GC-scanned memory", typ, typ)
		}
		if c.size > 0 && typ.Size() > c.size {
			t.Errorf("%s is %d bytes, over its %d-byte budget", typ, typ.Size(), c.size)
		}
	}
	if got := unsafe.Sizeof(inputUnit{}.buf); got != bufFlits*unsafe.Sizeof(flit{}) {
		t.Errorf("inline buffer is %d bytes, want bufFlits flits", got)
	}
}

// TestPacketPoolGrowsInCallback covers the packet pool growing in the
// middle of a delivery: an OnDelivered callback that injects can grow the
// pool while forward is ejecting the delivered packet, which still holds
// its slot until the callback returns. Every delivery here injects three
// responses, starting from a cold pool, so the pool grows inside callbacks
// again and again; both cores must still agree byte for byte, deliver
// everything, and end with every handle back on the free list.
func TestPacketPoolGrowsInCallback(t *testing.T) {
	const n = 24
	sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 11, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	var script []injection
	for c := int64(0); c < 40; c += 5 {
		script = append(script, injection{c, int(c) % n, int(c*7+5) % n})
	}
	checkCores(t, SFConfig(sf, 5), func(s *Sim) {
		injected, grewInside := 0, 0
		s.cfg.OnDelivered = func(src, dst int, tag int64) {
			if injected >= 3000 {
				return
			}
			before := s.Stats().PoolGrowths
			for k := 0; k < 3; k++ {
				if err := s.Inject(dst, (dst+1+7*k)%n, 2, tag+1); err != nil {
					t.Error(err)
				}
				injected++
			}
			if s.Stats().PoolGrowths > before {
				grewInside++
			}
		}
		runScript(t, s, script, 20000)
		res := s.Results()
		if grewInside < 3 {
			t.Errorf("the packet pool grew inside %d callbacks, want at least 3", grewInside)
		}
		if res.InFlight != 0 || res.Delivered != res.Injected {
			t.Errorf("closed loop did not drain: injected %d, delivered %d, %d flits in flight",
				res.Injected, res.Delivered, res.InFlight)
		}
		if len(s.free) != s.pooled {
			t.Errorf("%d of %d packet handles never returned to the free list", s.pooled-len(s.free), s.pooled)
		}
	})
}
