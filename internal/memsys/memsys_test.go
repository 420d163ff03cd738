package memsys

import (
	"testing"

	"repro/internal/design"
	"repro/internal/memnode"
	"repro/internal/trace"
)

// buildSmall builds a 16-node SF network with the given traces on 2 CPUs.
func buildSmall(t *testing.T, traces [][]trace.Op, window int) *System {
	t.Helper()
	d, err := design.Build(design.Spec{N: 16, Ports: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := memnode.NewPool(16)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(d.NetCfg(7), pool, []int{0, 8}, window, traces)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// synthTrace builds n ops spread across nodes with fixed instruction gaps.
func synthTrace(n int, gap int64, writeEvery int) []trace.Op {
	ops := make([]trace.Op, n)
	var instr int64
	for i := range ops {
		instr += gap
		ops[i] = trace.Op{
			Instr: instr,
			Addr:  uint64(i) * 4096,
			Node:  (i*7 + 3) % 16,
			Write: writeEvery > 0 && i%writeEvery == 0,
		}
	}
	return ops
}

func TestRunToCompletion(t *testing.T) {
	traces := [][]trace.Op{synthTrace(300, 20, 4), synthTrace(300, 20, 0)}
	sys := buildSmall(t, traces, 8)
	cycles, done, err := sys.RunToCompletion(500_000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("did not complete in %d cycles (reads issued %d complete %d)",
			cycles, sys.ReadsIssued, sys.ReadsComplete)
	}
	if sys.ReadsComplete != sys.ReadsIssued {
		t.Errorf("reads complete %d != issued %d", sys.ReadsComplete, sys.ReadsIssued)
	}
	res := sys.Results()
	if res.IPC <= 0 {
		t.Errorf("IPC = %v, want > 0", res.IPC)
	}
	if res.TotalPJ <= 0 || res.EDP <= 0 {
		t.Errorf("energy not accounted: %+v", res)
	}
	if res.DRAMAccesses == 0 {
		t.Error("no DRAM accesses recorded")
	}
}

func TestBuildValidation(t *testing.T) {
	d, _ := design.Build(design.Spec{N: 16, Ports: 4, Seed: 3})
	pool, _ := memnode.NewPool(16)
	cfg := d.NetCfg(7)
	if _, err := Build(cfg, pool, nil, 8, nil); err == nil {
		t.Error("no CPUs should fail")
	}
	if _, err := Build(cfg, pool, []int{0}, 8, nil); err == nil {
		t.Error("trace count mismatch should fail")
	}
	if _, err := Build(cfg, pool, []int{99}, 8, [][]trace.Op{nil}); err == nil {
		t.Error("invalid CPU node should fail")
	}
	bad := cfg
	bad.OnDelivered = func(a, b int, c int64) {}
	if _, err := Build(bad, pool, []int{0}, 8, [][]trace.Op{nil}); err == nil {
		t.Error("preset OnDelivered should fail")
	}
}

func TestSmallerWindowIsSlower(t *testing.T) {
	mk := func(window int) int64 {
		traces := [][]trace.Op{synthTrace(400, 2, 0), synthTrace(400, 2, 0)}
		sys := buildSmall(t, traces, window)
		cycles, done, err := sys.RunToCompletion(1_000_000)
		if err != nil || !done {
			t.Fatalf("window %d: done=%v err=%v", window, done, err)
		}
		return cycles
	}
	narrow := mk(1)
	wide := mk(16)
	if wide > narrow {
		t.Errorf("wide window (%d cycles) slower than narrow (%d)", wide, narrow)
	}
}

// TestRunToCompletionHonorsBudget: an unfinished run consumes exactly its
// cycle budget, not the budget rounded up to the next completion poll.
func TestRunToCompletionHonorsBudget(t *testing.T) {
	sys := buildSmall(t, [][]trace.Op{synthTrace(300, 20, 4), synthTrace(300, 20, 0)}, 8)
	cycles, done, err := sys.RunToCompletion(100)
	if err != nil || done {
		t.Fatalf("done=%v err=%v, want an unfinished run", done, err)
	}
	if cycles != 100 || sys.Sim().Cycle() != 100 {
		t.Errorf("RunToCompletion(100) consumed %d cycles (clock at %d), want exactly 100",
			cycles, sys.Sim().Cycle())
	}
}

func TestLocalAccessesSkipNetwork(t *testing.T) {
	// All ops target the CPU's own node: no network packets at all.
	ops := make([]trace.Op, 100)
	var instr int64
	for i := range ops {
		instr += 10
		ops[i] = trace.Op{Instr: instr, Addr: uint64(i) * 64, Node: 0}
	}
	sys := buildSmall(t, [][]trace.Op{ops, nil}, 8)
	_, done, err := sys.RunToCompletion(100_000)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if sys.ReadsIssued != 0 || sys.WritesIssued != 0 {
		t.Errorf("local-only trace issued network traffic: reads=%d writes=%d",
			sys.ReadsIssued, sys.WritesIssued)
	}
	if sys.DRAMAccesses != 100 {
		t.Errorf("DRAMAccesses = %d, want 100", sys.DRAMAccesses)
	}
}

func TestRealWorkloadTraceRuns(t *testing.T) {
	m := memnode.NewAddressMap(16)
	w, err := trace.NewWorkload("redis", 1<<30, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(w, m, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys := buildSmall(t, [][]trace.Op{tr.Ops, nil}, 8)
	cycles, done, err := sys.RunToCompletion(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("redis trace did not complete in %d cycles", cycles)
	}
	res := sys.Results()
	if res.IPC <= 0 {
		t.Errorf("IPC = %v", res.IPC)
	}
}

func TestRadixEnergyScaling(t *testing.T) {
	// The same traffic through higher-radix routers must book more network
	// energy (the D4 radix-proportional router-energy model).
	traces := [][]trace.Op{synthTrace(200, 10, 0), nil}
	low := buildSmall(t, traces, 8)
	low.Ports = 4
	if _, done, err := low.RunToCompletion(1_000_000); err != nil || !done {
		t.Fatalf("low-radix run: done=%v err=%v", done, err)
	}
	traces2 := [][]trace.Op{synthTrace(200, 10, 0), nil}
	high := buildSmall(t, traces2, 8)
	high.Ports = 32
	if _, done, err := high.RunToCompletion(1_000_000); err != nil || !done {
		t.Fatalf("high-radix run: done=%v err=%v", done, err)
	}
	lr, hr := low.Results(), high.Results()
	if lr.DRAMPJ != hr.DRAMPJ {
		t.Errorf("DRAM energy should not depend on radix: %v vs %v", lr.DRAMPJ, hr.DRAMPJ)
	}
	if hr.NetworkPJ <= lr.NetworkPJ {
		t.Errorf("32-port network energy (%v) not above 4-port (%v)", hr.NetworkPJ, lr.NetworkPJ)
	}
}

func TestResultsIdempotent(t *testing.T) {
	traces := [][]trace.Op{synthTrace(100, 10, 0), nil}
	sys := buildSmall(t, traces, 8)
	if _, done, err := sys.RunToCompletion(1_000_000); err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	a := sys.Results()
	b := sys.Results()
	if a.NetworkPJ != b.NetworkPJ || a.TotalPJ != b.TotalPJ {
		t.Errorf("Results not idempotent: %v vs %v", a.TotalPJ, b.TotalPJ)
	}
}
