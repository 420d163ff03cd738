package main

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Finding is one gate diagnostic, anchored to a source position.
type Finding struct {
	// Position locates the finding (file, line).
	Position token.Position
	// Analyzer names the check that produced it (e.g. "nondet-source").
	Analyzer string
	// Message states the defect and the sanctioned fix.
	Message string
}

// String renders the canonical "file:line: analyzer: message" line.
// Findings without a source anchor render as "(config)".
func (f Finding) String() string {
	if f.Position.Filename == "" {
		return fmt.Sprintf("(config): %s: %s", f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s:%d: %s: %s", f.Position.Filename, f.Position.Line, f.Analyzer, f.Message)
}

// Report accumulates findings across analyzers and packages.
type Report struct {
	findings []Finding
}

// Add records one finding at pos (resolved through fset).
func (r *Report) Add(fset *token.FileSet, pos token.Pos, analyzer, format string, args ...any) {
	r.AddAt(fset.Position(pos), analyzer, format, args...)
}

// AddAt records one finding at an already resolved position. The zero
// Position records a finding with no source anchor (e.g. a gate
// configuration naming a package or function that no longer exists).
func (r *Report) AddAt(pos token.Position, analyzer, format string, args ...any) {
	r.findings = append(r.findings, Finding{
		Position: pos,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Findings returns the recorded findings sorted by file, line and
// analyzer, so gate output is stable across runs regardless of analyzer
// scheduling.
func (r *Report) Findings() []Finding {
	out := append([]Finding(nil), r.findings...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// Print writes every finding to w in sorted order and returns the count.
func (r *Report) Print(w io.Writer) int {
	for _, f := range r.Findings() {
		fmt.Fprintln(w, f)
	}
	return len(r.findings)
}
