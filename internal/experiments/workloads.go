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
// Each design's workload grid runs as one sweep, so with a cluster
// configured (UseCluster) the Table IV workloads fan across machines.
// Every cell pins its session seed to cfg.Seed via the Point.Seed override
// — the exact session RunWorkload executes — so the figure's numbers are
// independent of the fan-out.
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
	points := make([]stringfigure.Point, len(workloads))
	for i, wl := range workloads {
		points[i] = stringfigure.Point{
			Workload: stringfigure.TraceWorkload{Workload: wl},
			Seed:     cfg.Seed,
		}
	}
	cells := make(map[string]map[string]cell, len(Fig12Designs))
	for _, kind := range Fig12Designs {
		net, err := buildNet(kind, n, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		var results []stringfigure.Result
		if cfg.Seed != 0 {
			results = net.SweepAll(cfg, points, 0)
		} else {
			// A zero seed cannot ride the Point.Seed override (0 means
			// "derive"); pin each cell's session seed through the PointSeed
			// inverse instead, one point per sweep. PointSeed is affine in
			// its base, so base = -PointSeed(0, 0) gives PointSeed(base, 0) = 0.
			baseCfg := cfg
			baseCfg.Seed = -stringfigure.PointSeed(0, 0)
			for _, p := range points {
				results = append(results, net.SweepAll(baseCfg, []stringfigure.Point{p}, 0)...)
			}
		}
		m := make(map[string]cell, len(workloads))
		for i, r := range results {
			if r.Err != nil {
				return nil, nil, r.Err
			}
			m[workloads[i]] = cell{ipc: r.IPC, pj: r.TotalEnergyPJ}
		}
		cells[kind] = m
	}
	geoT := map[string][]float64{}
	geoE := map[string][]float64{}
	for _, wl := range workloads {
		results := map[string]cell{}
		for _, kind := range Fig12Designs {
			results[kind] = cells[kind][wl]
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
