package main

import (
	"go/ast"
	"go/types"
)

// The nondet-source analyzer forbids ambient inputs in determinism-
// critical packages: wall-clock reads, the process-global math/rand
// source, and environment lookups. Equal Config values must reproduce
// bit-identical runs, so the only legal randomness is a seeded
// *rand.Rand threaded through Config (method calls on a *rand.Rand
// value are therefore allowed; package-level rand functions are not),
// and the only legal clock is the simulated cycle counter.

// nondetFuncs maps a package path to its forbidden package-level
// functions. A nil set forbids every package-level function of that
// package (math/rand: any draw from the global source).
var nondetFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true, "Hostname": true,
		"Getpid": true, "Getppid": true, "Getuid": true, "Geteuid": true,
		"Getwd": true,
	},
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// nondetAllow carves constructors out of the nil-means-everything rule:
// rand.New(rand.NewSource(seed)) is the sanctioned way to build the
// seeded generator, and NewZipf wraps an already-seeded *rand.Rand.
// Only draws from the package-global source remain forbidden.
var nondetAllow = map[string]map[string]bool{
	"math/rand":    {"New": true, "NewSource": true, "NewZipf": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true},
}

// nondetWhy phrases the finding per source package.
func nondetWhy(pkg, fn string) string {
	switch pkg {
	case "time":
		return "wall-clock read time." + fn + " makes runs irreproducible; derive timing from the simulated cycle counter"
	case "os":
		return "ambient process input os." + fn + " makes runs environment-dependent; plumb the value through Config"
	default:
		return "global " + pkg + "." + fn + " draws from the process-wide source; use the seeded *rand.Rand threaded through Config"
	}
}

// checkNondet reports every use of a forbidden ambient input in p.
// include filters by file base name (nil checks every file); it lets the
// root package exempt scrape-time exposition code (metrics.go) whose
// wall-clock use is observational, not result-bearing.
func checkNondet(p *Package, include func(file string) bool, rep *Report) {
	for _, f := range p.Files {
		if include != nil && !include(p.Filename(f.Pos())) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			set, critical := nondetFuncs[fn.Pkg().Path()]
			if !critical {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // a method (e.g. on a seeded *rand.Rand) is the sanctioned path
			}
			if set != nil && !set[fn.Name()] {
				return true
			}
			if nondetAllow[fn.Pkg().Path()][fn.Name()] {
				return true
			}
			rep.Add(p.Fset, id.Pos(), "nondet-source", "%s", nondetWhy(fn.Pkg().Path(), fn.Name()))
			return true
		})
	}
}
