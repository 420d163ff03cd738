// Command simlint is the repository's static gate. It proves, on every
// build, invariants the test suites only sample:
//
//	nondet-source   — determinism-critical packages read no ambient
//	                  inputs (wall clock, global rand, environment).
//	map-range-order — map iteration in those packages never leaks Go's
//	                  randomized order into results.
//	msg-exhaustive  — every dist protocol frame constant is sent, and
//	                  dispatched by the side that receives it.
//	doc-coverage    — every exported symbol of the root package and of
//	                  every internal package carries a doc comment.
//	hot-escape      — no per-cycle function of internal/netsim has a
//	                  heap escape the compiler reports under -m.
//
// It takes no flags and loads every package once. Findings print as
// "file:line: analyzer: message" and the process exits nonzero; on success
// it prints the surface it proved, so a green run shows the gate checked a
// non-empty contract. TestRealTreeIsClean runs the same configuration
// inside `go test ./...`. What crosses the sweep wire is guarded by a test
// instead, TestWireRoundTripByReflection in the root package: values
// travel as themselves, so there is no mirror to diff.
package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// target is one package directory with its per-analyzer scoping.
type target struct {
	// dir is the package directory, relative to the module root.
	dir string
	// nondet/maporder/docs enable those analyzers for the package.
	nondet, maporder, docs bool
	// nondetExempt lists file base names exempt from nondet-source
	// (observational code like scrape-time metrics exposition).
	nondetExempt []string
	// hot lists the package's per-cycle functions, receiver-qualified,
	// for hot-escape (none: the analyzer does not run).
	hot []string
}

// gateConfig is a full simlint run: which packages, which contracts.
type gateConfig struct {
	targets  []target
	dispatch []dispatchContract
}

// gateStats summarizes the surface a clean run proved.
type gateStats struct {
	packages, files, exported, hotFuncs, diags, msgConsts int
}

// empty names the first analyzer surface a full run left at zero, or ""
// when every one is non-empty.
func (s gateStats) empty() string {
	for _, c := range []struct {
		n    int
		what string
	}{
		{s.packages, "packages"}, {s.exported, "exported symbols"},
		{s.hotFuncs, "hot functions"}, {s.diags, "-m diagnostics"},
		{s.msgConsts, "protocol frames"},
	} {
		if c.n == 0 {
			return c.what
		}
	}
	return ""
}

// determinismCritical are the packages that compute results; they get
// nondet-source and map-range-order.
var determinismCritical = map[string]bool{
	"internal/netsim": true, "internal/design": true, "internal/routing": true,
	"internal/topology": true, "internal/stats": true, "internal/trace": true,
	"internal/scenario": true,
}

// netsimHot are the per-cycle functions of internal/netsim: everything a
// steady-state Run(1) can reach. Cold paths are exempt: construction (New,
// fill, topology wiring), ring.grow and traceAcct.grow (queues and the
// trace buffer reach their high-water capacity once), growPool (the packet
// pool doubles toward its high-water mark), snapshot and results assembly,
// and the escape-route swap that only runs on reconfiguration.
var netsimHot = []string{
	// cycle phases
	"Sim.step", "Sim.stepRef", "Sim.deliverLinkFlits", "Sim.deliverLinkFlitsRef",
	"Sim.land", "Sim.deliverFlit", "Sim.inject", "Sim.injGap",
	"Sim.drainSourceQueue", "Sim.routeHeads", "Sim.routeUnit", "Sim.routeFront",
	"Sim.arbitrate", "Sim.forward", "Sim.scanSlot", "Sim.lap",
	"Sim.scanSlotRef", "router.blocked", "Sim.pickPort", "Sim.overThreshold",
	// routing helpers (get/put are the route cache's lookup and fill,
	// missed its per-destination miss count, fillColumn its column fill)
	"Sim.candidates", "router.portOf", "Sim.noteBlocked", "Sim.assignEscape",
	"Sim.escapeHop", "RouteCache.get", "RouteCache.put", "RouteCache.missed",
	"Sim.fillColumn",
	// packet and queue plumbing
	"Sim.enqueuePacket", "Sim.enqueueSized", "Sim.purgeHeadPacket",
	"Sim.pkt", "Sim.allocPacket", "Sim.freePacket", "Sim.recordDelivery",
	// link sends, the delivery lanes and the far heap (flits sent onto a
	// waking link are rare, but they run inside step like every other send)
	"Sim.send", "Sim.sendRef", "farHeap.push", "farHeap.pop", "farRec.less",
	// ring ops
	"ring.Len", "ring.full", "ring.push", "ring.front", "ring.popFront",
	// input units' inline buffers
	"inputUnit.Len", "inputUnit.push", "inputUnit.front", "inputUnit.at",
	"inputUnit.popFront", "inputUnit.truncate",
	// worklist ops (the router worklist and the drain worklist)
	"activeSet.set", "activeSet.clear", "activeSet.count",
	// router bitmask helpers
	"router.candSet", "router.candClear", "router.attnSet", "router.attnClear",
	"router.park", "router.unpark", "router.unparkFlagged",
	// the credit return (unparkUp is its out-of-line unpark)
	"Sim.creditUp", "Sim.unparkUp",
	// flow accounting and trace sampling
	"flowAcct.observe", "flowAcct.bucketOf", "Sim.traceEvent",
}

// realConfig is the gate configuration for this repository, with paths
// relative to the module root. Scope decisions, so a future edit knows
// why:
//
//   - doc-coverage covers the root package and every internal/*
//     directory, globbed so a new package is covered from its first
//     commit.
//   - The root package and the determinismCritical packages compute
//     results; they get nondet-source and map-range-order. metrics.go is
//     nondet-exempt: time.Since at scrape time annotates an exposition
//     page, it never feeds a Result.
//   - internal/dist and internal/jobsvc are transport/service layers;
//     wall-clock deadlines and reconnect jitter are their job, so they
//     are outside nondet scope. internal/dist carries msg-exhaustive.
//   - hot-escape gates internal/netsim's netsimHot.
func realConfig() gateConfig {
	targets := []target{{dir: ".", nondet: true, maporder: true, docs: true, nondetExempt: []string{"metrics.go"}}}
	dirs, _ := filepath.Glob("internal/*") // the pattern is well-formed
	for _, d := range dirs {
		d = filepath.ToSlash(d)
		t := target{dir: d, docs: true, nondet: determinismCritical[d], maporder: determinismCritical[d]}
		if d == "internal/netsim" {
			t.hot = netsimHot
		}
		targets = append(targets, t)
	}
	return gateConfig{
		targets: targets,
		dispatch: []dispatchContract{
			{
				pkg: "repro/internal/dist", enumType: "msgType", constPrefix: "msg",
				frameType: "frame", discField: "Type",
				sides: map[string]string{"coordinator.go": "coordinator", "worker.go": "worker"},
			},
		},
	}
}

// excludeFiles builds an include filter rejecting the named base names,
// or nil (include everything) when the list is empty.
func excludeFiles(names []string) func(string) bool {
	if len(names) == 0 {
		return nil
	}
	skip := make(map[string]bool, len(names))
	for _, n := range names {
		skip[n] = true
	}
	return func(file string) bool { return !skip[file] }
}

// runGate loads every target package once and runs all five analyzers
// per the config, accumulating findings into rep.
func runGate(cfg gateConfig, rep *Report) (gateStats, error) {
	var stats gateStats
	dirs := make([]string, len(cfg.targets))
	for i, t := range cfg.targets {
		dirs[i] = t.dir
	}
	pkgs, err := load(dirs...)
	if err != nil {
		return stats, err
	}

	// Contracts address packages by import path or by directory, so
	// fixture tests can use plain paths.
	byKey := make(map[string]*Package, 2*len(pkgs))
	for _, p := range pkgs {
		byKey[p.ImportPath] = p
		byKey[p.Dir] = p
	}

	stats.packages = len(pkgs)
	for i, t := range cfg.targets {
		p := pkgs[i]
		stats.files += len(p.Files)
		if t.nondet {
			checkNondet(p, excludeFiles(t.nondetExempt), rep)
		}
		if t.maporder {
			checkMapOrder(p, nil, rep)
		}
		if t.docs {
			stats.exported += checkDocs(p, rep)
		}
		if len(t.hot) > 0 {
			resolved, diags := checkHotEscapes(p, t.hot, rep)
			stats.hotFuncs += resolved
			stats.diags += diags
		}
	}
	for _, d := range cfg.dispatch {
		stats.msgConsts += checkMsgDispatch(byKey, d, rep)
	}
	return stats, nil
}

func main() {
	rep := &Report{}
	stats, err := runGate(realConfig(), rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if n := rep.Print(os.Stdout); n > 0 {
		fmt.Printf("simlint: %d finding(s)\n", n)
		os.Exit(1)
	}
	if what := stats.empty(); what != "" {
		fmt.Printf("simlint: proved surface is empty (0 %s); run from the module root\n", what)
		os.Exit(1)
	}
	fmt.Printf("simlint: 5 analyzers, 0 findings across %d packages (%d files): %d exported symbols documented; %d hot functions resolved, %d -m diagnostics parsed; %d protocol frames dispatched\n",
		stats.packages, stats.files, stats.exported, stats.hotFuncs, stats.diags, stats.msgConsts)
}
