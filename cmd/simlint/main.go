// Command simlint is the determinism & protocol gate. It proves, on
// every build, invariants the test suites only sample:
//
//	nondet-source   — determinism-critical packages read no ambient
//	                  inputs (wall clock, global rand, environment).
//	map-range-order — map iteration in those packages never leaks Go's
//	                  randomized order into results.
//	msg-exhaustive  — every dist protocol frame constant is sent, and
//	                  dispatched by the side that receives it.
//
// Findings print as "file:line: analyzer: message" and the process
// exits nonzero; on success it prints the coverage it proved, so CI
// logs show the gate ran against a non-empty surface. What crosses the
// sweep wire is guarded by a test instead, TestWireRoundTripByReflection
// in the root package: values travel as themselves, so there is no
// mirror to diff.
package main

import (
	"fmt"
	"os"

	"repro/internal/lintutil"
)

// target is one package directory with its per-analyzer scoping.
type target struct {
	// dir is the package directory, relative to the module root.
	dir string
	// nondet/maporder enable those analyzers for the package.
	nondet, maporder bool
	// nondetExempt lists file base names exempt from nondet-source
	// (observational code like scrape-time metrics exposition).
	nondetExempt []string
}

// gateConfig is a full simlint run: which packages, which contracts.
type gateConfig struct {
	targets  []target
	dispatch []dispatchContract
}

// gateStats summarizes the surface a clean run proved.
type gateStats struct {
	packages, files, msgConsts int
}

// realConfig is the gate configuration for this repository. Scope
// decisions, so a future edit knows why:
//
//   - internal/netsim, design, routing, topology, stats, trace and the
//     root package compute results; they get nondet-source and
//     map-range-order. metrics.go is nondet-exempt: time.Since at
//     scrape time annotates an exposition page, it never feeds a
//     Result.
//   - internal/dist and internal/jobsvc are transport/service layers;
//     wall-clock deadlines and reconnect jitter are their job, so they
//     are outside nondet scope. internal/dist is loaded anyway for
//     msg-exhaustive.
func realConfig() gateConfig {
	return gateConfig{
		targets: []target{
			{dir: ".", nondet: true, maporder: true, nondetExempt: []string{"metrics.go"}},
			{dir: "internal/netsim", nondet: true, maporder: true},
			{dir: "internal/design", nondet: true, maporder: true},
			{dir: "internal/routing", nondet: true, maporder: true},
			{dir: "internal/topology", nondet: true, maporder: true},
			{dir: "internal/stats", nondet: true, maporder: true},
			{dir: "internal/trace", nondet: true, maporder: true},
			{dir: "internal/scenario", nondet: true, maporder: true},
			{dir: "internal/dist"},
		},
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

// runGate loads every target package once and runs all three analyzers
// per the config, accumulating findings into rep.
func runGate(cfg gateConfig, rep *lintutil.Report) (gateStats, error) {
	var stats gateStats
	dirs := make([]string, len(cfg.targets))
	for i, t := range cfg.targets {
		dirs[i] = t.dir
	}
	pkgs, err := lintutil.Load(lintutil.Typed, dirs...)
	if err != nil {
		return stats, err
	}

	// Contracts address packages by import path or by directory, so
	// fixture tests can use plain paths.
	byKey := make(map[string]*lintutil.Package, 2*len(pkgs))
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
	}
	for _, d := range cfg.dispatch {
		stats.msgConsts += checkMsgDispatch(byKey, d, rep)
	}
	return stats, nil
}

func main() {
	rep := &lintutil.Report{}
	stats, err := runGate(realConfig(), rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if n := rep.Print(os.Stdout); n > 0 {
		fmt.Printf("simlint: %d finding(s)\n", n)
		os.Exit(1)
	}
	fmt.Printf("simlint: 3 analyzers, 0 findings across %d packages (%d files); %d protocol frames dispatched\n",
		stats.packages, stats.files, stats.msgConsts)
}
