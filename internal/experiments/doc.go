// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) as a thin consumer of the public stringfigure API
// and the internal/design layer. Each experiment returns stats.Series
// values that cmd/sfexp prints and this package's tests check;
// ARCHITECTURE.md's package-to-paper map names the figure each one
// reproduces.
package experiments
