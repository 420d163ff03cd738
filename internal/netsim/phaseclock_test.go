package netsim

import (
	"reflect"
	"testing"
)

// TestPhaseClockLeavesRunsUnchanged requires a run with Config.PhaseClock
// set to produce byte-identical Results and snapshots, and identical counts
// in every other EngineStats field, to the same run without it, for each
// routing family. The clock here ticks once per read, so every event-core
// cycle charges each of the four phases exactly one tick.
func TestPhaseClockLeavesRunsUnchanged(t *testing.T) {
	for _, name := range []string{"sf", "s2", "fb"} {
		cfg := routeCacheDesigns(t)[name]
		off := runCached(t, cfg)
		ticks := int64(0)
		cfg.PhaseClock = func() int64 { ticks++; return ticks }
		on := runCached(t, cfg)
		if !on.equal(off) {
			t.Errorf("%s: the phase clock perturbs the run", name)
		}
		got, want := on.sim.Stats(), off.sim.Stats()
		cycles := on.sim.Cycle()
		for phase, ns := range map[string]int64{"deliver": got.DeliverNs,
			"inject": got.InjectNs, "drain": got.DrainNs, "route": got.RouteNs} {
			if ns != cycles {
				t.Errorf("%s: %s phase charged %d ticks over %d cycles, want one per cycle", name, phase, ns, cycles)
			}
		}
		if want.DeliverNs != 0 || want.InjectNs != 0 || want.DrainNs != 0 || want.RouteNs != 0 {
			t.Errorf("%s: phase timers ran without a clock: %+v", name, want)
		}
		got.DeliverNs, got.InjectNs, got.DrainNs, got.RouteNs = 0, 0, 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine counts with the clock %+v, without %+v", name, got, want)
		}
	}
}
