package main

import (
	"context"
	"encoding/json"
	"fmt"

	stringfigure "repro"
	"repro/internal/design"
	"repro/internal/experiments"
	"repro/internal/memnode"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/trace"
)

// Closed-loop session parameters of trace-loop-n128 (traceOps is the
// workload's size knob).
const (
	traceNodes   = 128
	traceOps     = 400
	traceSockets = 4
	traceWindow  = 16
	traceThreads = 4
	// traceMaxCycles is the session layer's default run bound.
	traceMaxCycles = 40_000_000
)

// traceBench replays the Table IV workloads closed-loop over the five
// Figure 12 designs. Op i runs workload i mod 8 on design i mod 5, so any
// 8 consecutive ops hold every workload and any 5 every design; all 40
// combinations of one pass share one session seed, as Figure 12 does.
type traceBench struct {
	seed int64
	nets map[string]*stringfigure.Network

	// Layer-probe state, built on the first probe.
	designs map[string]*design.Design
	rn      *reconfig.Network

	generated, rawAccesses, memCycles, memRunNs int64
}

// opOf names op i's workload, design and session seed.
func (b *traceBench) opOf(i int) (workload, kind string, seed int64) {
	workloads, kinds := trace.WorkloadNames, experiments.Fig12Designs
	pass := i / (len(workloads) * len(kinds))
	return workloads[i%len(workloads)], kinds[i%len(kinds)], stringfigure.PointSeed(b.seed, pass)
}

func (b *traceBench) setUp() error {
	b.nets = make(map[string]*stringfigure.Network)
	for _, kind := range experiments.Fig12Designs {
		net, err := stringfigure.New(stringfigure.WithDesign(kind),
			stringfigure.WithNodes(traceNodes), stringfigure.WithSeed(b.seed))
		if err != nil {
			return err
		}
		b.nets[kind] = net
	}
	return nil
}

func (b *traceBench) close() { b.nets = nil }

func (b *traceBench) op(ctx context.Context, i int) (opOut, error) {
	workload, kind, seed := b.opOf(i)
	cfg := stringfigure.SessionConfig{
		Ops: traceOps, Sockets: traceSockets, Window: traceWindow, Threads: traceThreads, Seed: seed,
	}
	// A run that does not drain its traces returns an error, so a nil
	// error is the "done" half of the health check.
	res, err := b.nets[kind].NewSession(cfg).RunContext(ctx, stringfigure.TraceWorkload{Workload: workload})
	if err != nil {
		return opOut{}, fmt.Errorf("%s on %s: %w", workload, kind, err)
	}
	if res.ReadsCompleted <= 0 {
		return opOut{}, fmt.Errorf("%s on %s: no read completed", workload, kind)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return opOut{}, err
	}
	return opOut{result: enc, counts: simCounts{
		Cycles: res.Cycles, Injected: res.Injected, Delivered: res.Delivered,
		Escaped: res.Escaped, Dropped: res.Dropped,
		MemCycles: res.Cycles, ReadsCompleted: res.ReadsCompleted, DRAMAccesses: res.DRAMAccesses,
	}}, nil
}

// probe recomposes op i from the layers under the session: per-socket
// trace synthesis through the cache hierarchy, memsys.Build over the
// design's simulator configuration, RunToCompletion. The co-simulation
// must end on the product op's cycle with as many reads completed.
func (b *traceBench) probe(_ context.Context, i int, rec *recorder, product opOut) error {
	if b.designs == nil {
		b.designs = make(map[string]*design.Design)
		for _, kind := range experiments.Fig12Designs {
			d, err := design.Build(design.Spec{Kind: kind, N: traceNodes, Seed: b.seed})
			if err != nil {
				return err
			}
			b.designs[kind] = d
		}
		b.rn = reconfig.New(b.designs["sf"].SF)
	}
	workload, kind, seed := b.opOf(i)
	d := b.designs[kind]
	var err error
	var res memsys.Results
	rec.time("probe", func() {
		sockets := min(traceSockets, d.Routers)
		cpuNodes := make([]int, sockets)
		for s := range cpuNodes {
			cpuNodes[s] = s * d.Routers / sockets
		}
		var pool *memnode.Pool
		if pool, err = memnode.NewPool(d.Routers); err != nil {
			return
		}
		amap := memnode.NewAddressMap(d.N)
		traces := make([][]trace.Op, sockets)
		rec.time("trace.generate", func() {
			for s := range traces {
				var w trace.Workload
				if w, err = trace.NewWorkload(workload, amap.CapacityBytes(), seed+int64(s)); err != nil {
					return
				}
				var tr *trace.Trace
				if tr, err = trace.Generate(w, amap, traceOps, seed+int64(100+s)); err != nil {
					return
				}
				for k := range tr.Ops {
					tr.Ops[k].Node = d.NodeRouter(tr.Ops[k].Node)
					tr.Ops[k].Instr /= traceThreads
				}
				traces[s] = tr.Ops
				b.generated += int64(len(tr.Ops))
				b.rawAccesses += trace.WarmupAccesses + tr.RawAccesses
			}
		})
		if err != nil {
			return
		}
		var netCfg netsim.Config
		if d.Reconfigurable {
			netCfg = sfNetConfig(rec, d, b.rn, seed)
		} else {
			netCfg = d.NetCfg(seed)
		}
		var sys *memsys.System
		rec.time("memsys.build", func() { sys, err = memsys.Build(netCfg, pool, cpuNodes, traceWindow, traces) })
		if err != nil {
			return
		}
		sys.Ports = d.Ports
		var done bool
		b.memRunNs += rec.time("memsys.run", func() { _, done, err = sys.RunToCompletion(traceMaxCycles) }).Nanoseconds()
		if err == nil && !done {
			err = fmt.Errorf("layer probe did not drain its traces")
		}
		res = sys.Results()
	})
	if err != nil {
		return fmt.Errorf("%s on %s: %w", workload, kind, err)
	}
	b.memCycles += res.Cycles
	if res.Cycles != product.counts.MemCycles || res.ReadsComplete != product.counts.ReadsCompleted {
		return fmt.Errorf("%s on %s: layer probe ended at cycle %d with %d reads, the product op at %d with %d",
			workload, kind, res.Cycles, res.ReadsComplete, product.counts.MemCycles, product.counts.ReadsCompleted)
	}
	return nil
}

func (b *traceBench) finish(_ *recorder, t totals, ops []timedOp, m map[string]float64) error {
	n := float64(len(ops))
	m["routing.tables_build_ms"] = t.ms["routing.tables_build"] / n
	m["trace.generate_ms"] = t.ms["trace.generate"] / n
	m["trace.ops_generated"] = float64(b.generated)
	m["cache.accesses"] = float64(b.rawAccesses)
	m["cache.ns_per_access"] = ratio(t.ms["trace.generate"]*1e6, float64(b.rawAccesses))
	m["cache.miss_ratio"] = ratio(float64(b.generated), float64(b.rawAccesses))
	m["memsys.build_ms"] = t.ms["memsys.build"] / n
	m["memsys.run_ms"] = t.ms["memsys.run"] / n
	m["memsys.ns_per_cycle"] = ratio(float64(b.memRunNs), float64(b.memCycles))
	m["memsys.share"] = ratio(t.ms["memsys.run"], t.ms["session.run"])

	var err error
	m["design.build_ms"] = medianMs(5, func() {
		for _, kind := range experiments.Fig12Designs {
			if _, berr := design.Build(design.Spec{Kind: kind, N: traceNodes, Seed: b.seed}); berr != nil {
				err = berr
			}
		}
	})
	return err
}
