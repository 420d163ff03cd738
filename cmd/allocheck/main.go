// Command allocheck is the escape-analysis gate for the netsim hot loop.
// The event-driven core's zero-allocation steady state is enforced twice:
// BenchmarkNetsimStep measures allocs/op empirically (gated at 0 by
// cmd/benchgate), and this command asks the compiler directly. It runs
// `go build -gcflags=-m` over internal/netsim, attributes every "escapes
// to heap" / "moved to heap" diagnostic to its enclosing function, and
// fails if one lands in a per-cycle function — the kind of regression
// that is silent in tests (a closure capture, an interface conversion, a
// fmt call on a debug path) and only shows up later as GC pressure.
//
// Cold paths are exempt: construction (New, fill, topology wiring),
// ring.grow (queues reach their high-water capacity once), growPool (the
// packet pool doubles toward its high-water mark), snapshot/results
// assembly, and the escape-route swap that only runs on reconfiguration
// (it detaches the simulator to a fresh private route cache).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lintutil"
)

// hotFuncs are the per-cycle functions of internal/netsim: everything a
// steady-state Run(1) can reach. An escape diagnostic inside any of these
// fails the gate.
var hotFuncs = map[string]bool{
	// cycle phases
	"step": true, "stepRef": true, "deliverLinkFlits": true,
	"deliverLinkFlitsRef": true, "wakeLink": true, "deliverFlit": true,
	"inject": true, "injGap": true, "drainSourceQueue": true,
	"routeHeads": true, "routeUnit": true, "routeFront": true,
	"arbitrate": true, "arbitrateSlot": true, "forward": true,
	"scanSlot": true, "scanSlotRef": true, "pickPort": true,
	"overThreshold": true,
	// routing helpers (get/put are the route cache's lookup and fill)
	"candidates": true, "portOf": true, "noteBlocked": true,
	"assignEscape": true, "escapeHop": true, "get": true, "put": true,
	// packet and queue plumbing
	"enqueuePacket": true, "enqueueSized": true, "purgeHeadPacket": true,
	"allocPacket": true, "freePacket": true, "recordDelivery": true,
	"scheduleWake": true,
	// ring ops (grow is the deliberate cold-path exception)
	"Len": true, "push": true, "front": true, "at": true,
	"popFront": true, "truncate": true, "pop": true,
	// worklist ops
	"set": true, "clear": true, "forEach": true,
	// router bitmask helpers
	"candSet": true, "candClear": true, "attnSet": true, "attnClear": true,
	"unitFilled": true, "unitEmptied": true, "park": true, "unpark": true,
	// flow accounting and trace sampling (traceAcct.grow is the deliberate
	// cold-path exception, like ring.grow; snapshot emission is cold)
	"observe": true, "bucketOf": true, "traceEvent": true,
}

// escapeMsg matches the two diagnostics that mean a heap allocation.
var escapeMsg = regexp.MustCompile(`escapes to heap|moved to heap`)

// diagLine matches `./file.go:line:col: message`.
var diagLine = regexp.MustCompile(`^(.*\.go):(\d+):\d+: (.*)$`)

func main() {
	pkgDir := "internal/netsim"
	if len(os.Args) > 1 {
		pkgDir = os.Args[1]
	}
	funcs, err := functionRanges(pkgDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocheck: %v\n", err)
		os.Exit(1)
	}

	cmd := exec.Command("go", "build", "-gcflags=-m", "./"+pkgDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "allocheck: go build: %v\n%s", err, out.String())
		os.Exit(1)
	}

	var bad []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil || !escapeMsg.MatchString(m[3]) {
			continue
		}
		file := filepath.Base(m[1])
		line, _ := strconv.Atoi(m[2])
		fn := enclosing(funcs[file], line)
		if fn == "" || !hotFuncs[fn] {
			continue
		}
		bad = append(bad, fmt.Sprintf("%s:%d: in hot func %s: %s", file, line, fn, m[3]))
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "allocheck: %d heap escape(s) in per-cycle functions:\n", len(bad))
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		fmt.Fprintln(os.Stderr, "allocheck: the netsim hot loop must stay allocation-free in steady state (see ARCHITECTURE.md, \"Hot loop\")")
		os.Exit(1)
	}
	fmt.Printf("allocheck: %s clean — no heap escapes in %d gated functions\n", pkgDir, len(hotFuncs))
}

// funcSpan is one top-level function's line range in a file.
type funcSpan struct {
	name       string
	start, end int
}

// functionRanges parses every non-test .go file in dir (via the shared
// internal/lintutil loader) and records the line span of each top-level
// function (methods keyed by bare name; closures attribute to their
// enclosing function via the span).
func functionRanges(dir string) (map[string][]funcSpan, error) {
	pkgs, err := lintutil.Load(lintutil.ParseOnly, dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]funcSpan)
	for _, p := range pkgs {
		for _, file := range p.Files {
			base := p.Filename(file.Pos())
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out[base] = append(out[base], funcSpan{
					name:  fd.Name.Name,
					start: p.Fset.Position(fd.Pos()).Line,
					end:   p.Fset.Position(fd.End()).Line,
				})
			}
			sort.Slice(out[base], func(i, j int) bool { return out[base][i].start < out[base][j].start })
		}
	}
	return out, nil
}

// enclosing returns the name of the function whose span contains line.
func enclosing(spans []funcSpan, line int) string {
	for _, s := range spans {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return ""
}
