package experiments

import (
	stringfigure "repro"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cpuNodesFor spreads the sockets across the network (the paper attaches
// processors to edge nodes; any subset is legal — Section IV).
func cpuNodesFor(sockets, routers int) []int {
	nodes := make([]int, sockets)
	for i := range nodes {
		nodes[i] = (i * routers) / sockets
	}
	return nodes
}

// RunWorkload trace-drives one workload on one design of n nodes through
// the public Session API and returns the unified co-simulation result. The
// topology and the session share cfg.Seed.
func RunWorkload(kind, workload string, n int, cfg stringfigure.SessionConfig) (stringfigure.Result, error) {
	net, err := buildNet(kind, n, cfg.Seed)
	if err != nil {
		return stringfigure.Result{}, err
	}
	return net.NewSession(cfg).Run(stringfigure.TraceWorkload{Workload: workload})
}

// Fig12Designs are the designs of Figure 12 (DM is the normalization
// baseline for throughput; AFB for energy).
var Fig12Designs = []string{"dm", "odm", "afb", "s2", "sf"}

// Fig12 reproduces Figure 12: per-workload system throughput normalized to
// DM (a), and dynamic memory energy normalized to AFB (b). It returns the
// two series plus the geomean rows the paper quotes.
//
// Every (design, workload) trace session is one figure cell, and the cells
// run on the harness's cell pool; with a cluster configured (UseCluster)
// each cell's session can run on a remote worker. Every cell pins its
// session seed to cfg.Seed — the exact session RunWorkload executes — so
// the figure's numbers are independent of the fan-out.
func Fig12(workloads []string, n int, cfg stringfigure.SessionConfig) (throughput, energy *stats.Series, err error) {
	if len(workloads) == 0 {
		workloads = trace.WorkloadNames
	}
	throughput = stats.NewSeries("Figure 12(a): normalized throughput (vs DM, higher is better)",
		"odm", "afb", "s2", "sf")
	energy = stats.NewSeries("Figure 12(b): normalized dynamic energy (vs AFB, lower is better)",
		"dm", "odm", "s2", "sf")
	type cell struct {
		ipc float64
		pj  float64
	}
	// Cell i is (design, workload) in row-major order.
	net := sharedNets(cfg.Seed)
	cells, err := runCells(len(Fig12Designs)*len(workloads), nil,
		func(i int) (cell, error) {
			nw, err := net(Fig12Designs[i/len(workloads)], n)
			if err != nil {
				return cell{}, err
			}
			p := stringfigure.Point{Workload: stringfigure.TraceWorkload{Workload: workloads[i%len(workloads)]}, Seed: cfg.Seed}
			pc := cfg
			if cfg.Seed == 0 {
				// A zero seed cannot ride the Point.Seed override (0 means
				// "derive"); pin the session seed through the PointSeed
				// inverse instead. PointSeed is affine in its base, so base
				// -PointSeed(0, 0) gives PointSeed(base, 0) = 0.
				pc.Seed = -stringfigure.PointSeed(0, 0)
			}
			r := nw.SweepAll(pc, []stringfigure.Point{p}, 1)[0]
			return cell{ipc: r.IPC, pj: r.TotalEnergyPJ}, r.Err
		})
	if err != nil {
		return nil, nil, err
	}
	geoT := map[string][]float64{}
	geoE := map[string][]float64{}
	for w, wl := range workloads {
		results := map[string]cell{}
		for d, kind := range Fig12Designs {
			results[kind] = cells[d*len(workloads)+w]
		}
		base := results["dm"].ipc
		tRow := make([]float64, 0, 4)
		for _, kind := range []string{"odm", "afb", "s2", "sf"} {
			v := 0.0
			if base > 0 {
				v = results[kind].ipc / base
			}
			tRow = append(tRow, v)
			geoT[kind] = append(geoT[kind], v)
		}
		throughput.AddLabeledRow(wl, tRow...)

		eBase := results["afb"].pj
		eRow := make([]float64, 0, 4)
		for _, kind := range []string{"dm", "odm", "s2", "sf"} {
			v := 0.0
			if eBase > 0 {
				v = results[kind].pj / eBase
			}
			eRow = append(eRow, v)
			geoE[kind] = append(geoE[kind], v)
		}
		energy.AddLabeledRow(wl, eRow...)
	}
	throughput.AddLabeledRow("geomean",
		stats.GeoMean(geoT["odm"]), stats.GeoMean(geoT["afb"]),
		stats.GeoMean(geoT["s2"]), stats.GeoMean(geoT["sf"]))
	energy.AddLabeledRow("geomean",
		stats.GeoMean(geoE["dm"]), stats.GeoMean(geoE["odm"]),
		stats.GeoMean(geoE["s2"]), stats.GeoMean(geoE["sf"]))
	return throughput, energy, nil
}
