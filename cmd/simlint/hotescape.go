package main

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// The hot-escape analyzer asks the compiler whether a per-cycle function
// heap-allocates. It runs `go build -gcflags=-m` over the package,
// attributes every "escapes to heap" / "moved to heap" diagnostic to its
// enclosing top-level function (closures count toward the function that
// declares them), and reports one landing in a listed hot function — the
// kind of regression that is silent in tests (a closure capture, an
// interface conversion, a fmt call on a debug path) and only shows up later
// as GC pressure. It proves static escapes only: an append that grows a
// slice is not an escape diagnostic, which is what the exact steady-state
// allocation tests count.
//
// Hot functions are named receiver-qualified ("Sim.step", "ring.push"), so
// two methods sharing a name are gated one by one. A listed name that
// resolves to no declaration, and a build whose output parses to zero
// diagnostics, are findings: a rename or a changed diagnostic format must
// fail the gate, not shrink it to nothing.

// escapeMsg matches the two diagnostics that mean a heap allocation.
var escapeMsg = regexp.MustCompile(`escapes to heap|moved to heap`)

// diagLine matches `path/file.go:line:col: message`.
var diagLine = regexp.MustCompile(`^(.*\.go):(\d+):\d+: (.*)$`)

// funcSpan is one top-level function's line range in a file.
type funcSpan struct {
	name       string
	start, end int
}

// checkHotEscapes gates p's listed hot functions and returns how many of
// them resolved to a declaration and how many -m diagnostics it parsed.
func checkHotEscapes(p *Package, hot []string, rep *Report) (resolved, diags int) {
	spans := funcSpans(p)
	declared := make(map[string]bool)
	for _, ss := range spans {
		for _, s := range ss {
			declared[s.name] = true
		}
	}
	gated := make(map[string]bool, len(hot))
	for _, name := range hot {
		gated[name] = true
		if declared[name] {
			resolved++
		} else {
			rep.AddAt(token.Position{}, "hot-escape",
				"hot function %s resolves to no declaration in %s — renamed or deleted? update the gate list", name, p.ImportPath)
		}
	}

	out, err := exec.Command("go", "build", "-gcflags=-m", dirPattern(p.Dir)).CombinedOutput()
	if err != nil {
		rep.AddAt(token.Position{}, "hot-escape", "go build -gcflags=-m %s: %v\n%s", p.Dir, err, out)
		return resolved, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		diags++
		if !escapeMsg.MatchString(m[3]) {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		if fn := enclosing(spans[filepath.Base(m[1])], line); gated[fn] {
			rep.AddAt(token.Position{Filename: m[1], Line: line}, "hot-escape",
				"in hot function %s: %s; the per-cycle loop must not heap-allocate (move the allocation to a cold, never-inlined helper like ring.grow)", fn, m[3])
		}
	}
	if diags == 0 {
		rep.AddAt(token.Position{}, "hot-escape",
			"go build -gcflags=-m %s yielded no parsable diagnostics — changed output format? the gate would pass vacuously", p.Dir)
	}
	return resolved, diags
}

// funcSpans records, per file base name, the line span of every top-level
// function declared in p, named receiver-qualified.
func funcSpans(p *Package) map[string][]funcSpan {
	spans := make(map[string][]funcSpan)
	for _, file := range p.Files {
		base := p.Filename(file.Pos())
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv) + "." + name
			}
			spans[base] = append(spans[base], funcSpan{
				name:  name,
				start: p.Fset.Position(fd.Pos()).Line,
				end:   p.Fset.Position(fd.End()).Line,
			})
		}
	}
	return spans
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
