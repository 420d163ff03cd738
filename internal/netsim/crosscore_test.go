package netsim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// coreRun is one core's output for a scenario: its results, its snapshot
// stream and the engine counters of the transitions both cores share.
type coreRun struct {
	res    Results
	snaps  []Snapshot
	shared EngineStats
}

// runCore runs the scenario on one core.
func runCore(t *testing.T, cfg Config, ref bool, drive func(s *Sim)) coreRun {
	t.Helper()
	var out coreRun
	cfg.ReferenceCore = ref
	cfg.SnapshotEvery = 64
	cfg.OnSnapshot = func(sn Snapshot) { out.snaps = append(out.snaps, sn) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s)
	st := s.Stats()
	out.res = s.Results()
	out.shared = EngineStats{PoolGrowths: st.PoolGrowths, PoolHighWater: st.PoolHighWater,
		SrcQGrowths: st.SrcQGrowths, SrcQHighWater: st.SrcQHighWater,
		EscapeTransitions: st.EscapeTransitions}
	return out
}

// checkCores fails the test unless both cores produced identical results,
// snapshot streams and shared-transition engine counts.
func checkCores(t *testing.T, cfg Config, drive func(s *Sim)) {
	t.Helper()
	ev, ref := runCore(t, cfg, false, drive), runCore(t, cfg, true, drive)
	if !reflect.DeepEqual(ev.res, ref.res) {
		t.Errorf("results diverge:\nevent: %+v\nref:   %+v", ev.res, ref.res)
	}
	if ev.shared != ref.shared {
		t.Errorf("shared engine counts diverge:\nevent: %+v\nref:   %+v", ev.shared, ref.shared)
	}
	if !reflect.DeepEqual(ev.snaps, ref.snaps) {
		t.Errorf("snapshot streams diverge: %d vs %d snapshots", len(ev.snaps), len(ref.snaps))
		for i := 0; i < len(ev.snaps) && i < len(ref.snaps); i++ {
			if !reflect.DeepEqual(ev.snaps[i], ref.snaps[i]) {
				t.Errorf("first divergent snapshot %d:\nevent: %+v\nref:   %+v", i, ev.snaps[i], ref.snaps[i])
				break
			}
		}
	}
}

// TestCrossCoreSyntheticSF pins bit-identity of the event-driven core
// against the reference full-scan core on a String Figure network across
// load levels, including loads past saturation.
func TestCrossCoreSyntheticSF(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 32, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.02, 0.1, 0.4} {
		cfg := SFConfig(sf, 7)
		checkCores(t, cfg, func(s *Sim) {
			s.SetPattern(rate, pat)
			s.Run(600)
			s.ResetStats()
			s.Run(1500)
			// Drain tail: stop injecting and let the network empty, which
			// exercises router deactivation and reactivation.
			s.SetPattern(0, pat)
			s.Run(800)
			s.SetPattern(rate, pat)
			s.Run(400)
		})
	}
}

// TestCrossCoreTraceAndClosedLoop pins bit-identity under scripted
// injection (Inject between Run slices) plus an OnDelivered closed loop (the memory co-simulation
// pattern: callbacks inject responses mid-phase).
func TestCrossCoreTraceAndClosedLoop(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 24, Ports: 4, Seed: 11, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	var script []injection
	for c := int64(0); c < 400; c += 3 {
		script = append(script, injection{c, int(c) % 24, int(c*7+5) % 24})
	}
	cfg := SFConfig(sf, 5)
	base := cfg
	checkCores(t, base, func(s *Sim) {
		// Closed loop: every delivery to an even node triggers a response.
		s.SetEscapeRoute(cfg.EscapeRoute)
		responded := 0
		s.cfg.OnDelivered = func(src, dst int, tag int64) {
			if dst%2 == 0 && responded < 200 {
				responded++
				s.Inject(dst, src, 2, tag+1)
			}
		}
		runScript(t, s, script, 2000)
	})
}

// TestCrossCoreFlowTelemetry pins the flow-observability layer at the
// netsim boundary: with flow accounting and trace sampling enabled, both
// cores must produce identical Results and identical snapshot streams —
// including the per-flow/link/router deltas and the sorted trace records —
// and enabling the accounting must leave the simulation itself (Results
// plus the pre-existing snapshot fields) bit-identical to a run without it,
// on either core.
func TestCrossCoreFlowTelemetry(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 32, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(s *Sim) {
		s.SetPattern(0.1, pat)
		s.Run(900)
		s.ResetStats()
		s.Run(1200)
	}
	flowCfg := func() Config {
		c := SFConfig(sf, 7)
		c.FlowBuckets = 4
		c.TraceSampleEvery = 8
		return c
	}

	// Event vs reference with the accounting on.
	checkCores(t, flowCfg(), drive)

	// On vs off, per core: the accounting is purely observational.
	run := func(c Config) (Results, []Snapshot) {
		var snaps []Snapshot
		c.SnapshotEvery = 64
		c.OnSnapshot = func(sn Snapshot) { snaps = append(snaps, sn) }
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		drive(s)
		return s.Results(), snaps
	}
	for _, ref := range []bool{false, true} {
		on := flowCfg()
		on.ReferenceCore = ref
		off := SFConfig(sf, 7)
		off.ReferenceCore = ref
		onRes, onSnaps := run(on)
		offRes, offSnaps := run(off)
		if !reflect.DeepEqual(onRes, offRes) {
			t.Errorf("ref=%v: flow accounting perturbs results:\non:  %+v\noff: %+v", ref, onRes, offRes)
		}
		var flows, traces int
		for i := range onSnaps {
			flows += len(onSnaps[i].Flows)
			traces += len(onSnaps[i].Trace)
			onSnaps[i].Flows, onSnaps[i].Links = nil, nil
			onSnaps[i].Routers, onSnaps[i].Trace = nil, nil
		}
		if flows == 0 || traces == 0 {
			t.Errorf("ref=%v: accounting enabled but emitted %d flow deltas, %d trace records", ref, flows, traces)
		}
		if !reflect.DeepEqual(onSnaps, offSnaps) {
			t.Errorf("ref=%v: flow accounting perturbs the base snapshot stream", ref)
		}
	}
}

// TestCrossCoreMidRunHooks pins bit-identity while the mid-run hooks used
// by gate schedules fire: routing-table mutation between Run slices, link
// wake deadlines (wake charging), and escape-route swaps.
func TestCrossCoreMidRunHooks(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 24, Ports: 4, Seed: 9, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SFConfig(sf, 13)
	checkCores(t, cfg, func(s *Sim) {
		s.SetPattern(0.15, pat)
		s.Run(300)
		// Charge every link into or out of node 0 one wake deadline, as
		// reconfiguration wake charging does.
		deadline := s.Cycle() + 40
		for u, r := range s.routers {
			for _, v := range r.outNbr {
				if u == 0 || v == 0 {
					if err := s.SetLinkWake(u, v, deadline); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		s.Run(700)
	})
}

// TestLinkWakeKeepsLinksFIFO charges random wake deadlines mid-run — short
// ones, whose far flits tie with the link's first lane flits, long ones, and
// re-charges of a link that is still waking, later or earlier than its
// current deadline — and checks after every cycle that every link delivers
// in send order, each flit on its own arrival cycle (checkLinksFIFO), and
// that every input unit holds whole packets in order (checkUnitsInOrder),
// which a delivery out of send order breaks. Both cores must agree byte for
// byte, and a wake request for a pair that is not a link must fail.
func TestLinkWakeKeepsLinksFIFO(t *testing.T) {
	const n = 24
	sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 9, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", n)
	if err != nil {
		t.Fatal(err)
	}
	checkCores(t, SFConfig(sf, 5), func(s *Sim) {
		if s.SetLinkWake(0, 0, 10) == nil || s.SetLinkWake(n, 0, 10) == nil {
			t.Error("SetLinkWake accepted a pair that is not a link")
		}
		rng := rand.New(rand.NewSource(3))
		s.SetPattern(0.15, pat)
		recharged := 0
		for c := 0; c < 3000; c++ {
			if c%20 == 0 && c < 2000 {
				for k := 0; k < 6; k++ {
					r := s.routers[rng.Intn(n)]
					p := rng.Intn(len(r.outNbr))
					until := s.Cycle() + 1 + int64(rng.Intn(8))
					if k%2 == 1 {
						until = s.Cycle() + int64(rng.Intn(512))
					}
					if s.links[int(r.linkBase)+p].wake > s.Cycle() {
						recharged++
					}
					if err := s.SetLinkWake(r.id, r.outNbr[p], until); err != nil {
						t.Fatal(err)
					}
				}
			}
			s.Run(1)
			checkLinksFIFO(t, s)
			checkUnitsInOrder(t, s)
		}
		if recharged == 0 {
			t.Error("no wake re-charged a link that was still waking")
		}
		if !s.cfg.ReferenceCore && (s.Stats().FarFlits == 0 || s.Stats().LaneFlits == 0) {
			t.Errorf("deliveries: %d from lanes, %d from the far heap; want some of each", s.Stats().LaneFlits, s.Stats().FarFlits)
		}
		if s.Results().Delivered == 0 {
			t.Error("nothing delivered")
		}
	})
}

// linkOf returns the global link a lane or far record travels on.
func (s *Sim) linkOf(rec laneRec) int {
	dn := s.routers[rec.dn]
	port := int(rec.unit) / s.vcs
	return int(s.routers[dn.inUp[port]].linkBase) + int(dn.upOutPort[port])
}

// checkLinksFIFO fails the test unless no flit on a link is overdue and the
// link queues keep each link's flits in send order. On the reference core
// that is every delay line's arrivals nondecreasing from head to tail. On
// the event core it is every lane's records in arrival order, each within
// its link's latency of now, and each link's far records nondecreasing in
// arrival by send sequence. Lane and far records of one link interleave
// correctly by construction — a flit sent once the link is awake arrives no
// earlier than base + wake, and the far heap drains first — which the
// queues alone cannot show; checkUnitsInOrder sees the delivery order.
func checkLinksFIFO(t *testing.T, s *Sim) {
	t.Helper()
	now := s.Cycle()
	if s.cfg.ReferenceCore {
		for l := range s.lines {
			q := &s.lines[l]
			prev := now
			for i := 0; i < q.Len(); i++ {
				a := q.buf[(int(q.head)+i)&(len(q.buf)-1)].arrive
				if a < prev {
					t.Fatalf("cycle %d: link %d: flit %d arrives at %d, before %d", now, l, i, a, prev)
				}
				prev = a
			}
		}
		return
	}
	for li := range s.lanes {
		q := &s.lanes[li]
		prev := now
		for i := 0; i < q.Len(); i++ {
			rec := q.buf[(int(q.head)+i)&(len(q.buf)-1)]
			a := now + int64(int32(rec.arrive-uint32(now)))
			base := int64(s.links[s.linkOf(rec)].base)
			if a < prev || a >= now+base {
				t.Fatalf("cycle %d: lane %d: record %d arrives at %d, want in [%d, %d)", now, li, i, a, prev, now+base)
			}
			prev = a
		}
	}
	far := slices.Clone(s.far)
	slices.SortFunc(far, func(a, b farRec) int { return cmp.Compare(a.seq, b.seq) })
	last := make(map[int]int64)
	for _, fr := range far {
		l := s.linkOf(fr.rec)
		if fr.arrive < max(now, last[l]) {
			t.Fatalf("cycle %d: link %d: far record %d arrives at %d, before %d", now, l, fr.seq, fr.arrive, max(now, last[l]))
		}
		last[l] = fr.arrive
	}
}

// checkUnitsInOrder fails the test unless every input unit holds whole
// packets in order: after a tail comes a head, after any other flit the
// next flit of the same packet.
func checkUnitsInOrder(t *testing.T, s *Sim) {
	t.Helper()
	for _, r := range s.routers {
		for u := range r.in {
			iu := &r.in[u]
			for i := 1; i < iu.Len(); i++ {
				prev, f := iu.at(i-1), iu.at(i)
				if prev.tail != f.head || (!prev.tail && prev.pkt != f.pkt) {
					t.Fatalf("cycle %d: router %d unit %d: flit %d (packet %d, head %v) follows packet %d (tail %v)",
						s.Cycle(), r.id, u, i, f.pkt, f.head, prev.pkt, prev.tail)
				}
			}
		}
	}
}

// TestEventCoreConservesFlits checks the event core's incremental
// occupancy after every cycle of a loaded run and of a gated one (links
// charged wake deadlines, so flits wait in the far heap): flitsIn must
// equal the flits in source queues, input units, lanes and the far heap,
// and no lane may outgrow the size New gave it.
func TestEventCoreConservesFlits(t *testing.T) {
	const n = 32
	sf, err := topology.NewStringFigure(topology.Config{N: n, Ports: 4, Seed: 3, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern("uniform", n)
	if err != nil {
		t.Fatal(err)
	}
	for _, gated := range []bool{false, true} {
		s, err := New(SFConfig(sf, 7))
		if err != nil {
			t.Fatal(err)
		}
		s.SetPattern(0.3, pat)
		rng := rand.New(rand.NewSource(5))
		var sizes []int
		for li := range s.lanes {
			sizes = append(sizes, len(s.lanes[li].buf))
		}
		for c := 0; c < 1500; c++ {
			if gated && c%100 == 0 {
				r := s.routers[rng.Intn(n)]
				for _, v := range r.outNbr {
					if err := s.SetLinkWake(r.id, v, s.Cycle()+int64(rng.Intn(300))); err != nil {
						t.Fatal(err)
					}
				}
			}
			s.Run(1)
			total := len(s.far)
			for li := range s.lanes {
				total += s.lanes[li].Len()
				if len(s.lanes[li].buf) != sizes[li] {
					t.Fatalf("gated=%v cycle %d: lane %d grew from %d to %d records", gated, s.Cycle(), li, sizes[li], len(s.lanes[li].buf))
				}
			}
			for _, r := range s.routers {
				total += r.srcQ.Len()
				for u := range r.in {
					total += r.in[u].Len()
				}
			}
			if total != s.flitsIn {
				t.Fatalf("gated=%v cycle %d: flitsIn %d, queues hold %d", gated, s.Cycle(), s.flitsIn, total)
			}
		}
		if st := s.Stats(); st.LaneFlits == 0 || gated != (st.FarFlits > 0) {
			t.Errorf("gated=%v: %d lane and %d far deliveries", gated, st.LaneFlits, st.FarFlits)
		}
	}
}
