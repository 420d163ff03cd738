package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/golden"
)

// footer matches sfexp's "-- <id> done in <wall> --" line and the blank
// line after it, the only output that changes from run to run.
var footer = regexp.MustCompile(`(?m)^-- \S+ done in \S+ --\n\n`)

// TestCLI builds sfexp once and drives it as a user does: the one-shot
// ids against golden output (testdata/ holds the topology and session the
// retired sfgen -n 16 and sfsim -n 16 -warmup 600 -cycles 1500 printed at
// seed 1; rewrite them on purpose with go test ./cmd/sfexp -run TestCLI
// -update), and every bad input to a named error and exit status 1.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sfexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sfexp := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return footer.ReplaceAllString(o.String(), ""), e.String(), code
	}

	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"topo-16-summary", []string{"-exp", "topo", "-scale", "16"}},
		{"topo-16-links", []string{"-exp", "topo", "-scale", "16", "-format", "links"}},
		{"topo-16-dot", []string{"-exp", "topo", "-scale", "16", "-format", "dot"}},
		{"run-16-quick", []string{"-exp", "run", "-quick", "-scale", "16"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			got, stderr, code := sfexp(c.args...)
			if code != 0 {
				t.Fatalf("sfexp %s: exit %d: %s", strings.Join(c.args, " "), code, stderr)
			}
			golden.Text(t, filepath.Join("testdata", c.golden+".golden"), got)
		})
	}

	// A design run below the scales the figures evaluate it at still
	// prints its result, with one note on stderr.
	off := []string{"-exp", "run", "-design", "fb", "-scale", "64", "-quick"}
	stdout, stderr, code := sfexp(off...)
	const note = "sfexp: note: N=64 is off the paper's axis for fb; the figures evaluate it from N=128\n"
	if code != 0 || !strings.HasPrefix(stdout, "design=fb N=64 routers=121 ") || stderr != note {
		t.Errorf("sfexp %s: exit %d, stdout %q, stderr %q; want exit 0, a result and the note %q",
			strings.Join(off, " "), code, stdout, stderr, note)
	}

	for _, c := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-exp", "nope"}, `unknown experiment "nope" (want all, fig5, fig9a, table2, bisect, fig10, fig11, fig12a, fig12b, fig9b, placement, sweep, ablate, run, topo)`},
		{[]string{"-exp", "run", "-pattern", "bogus"}, `unknown pattern "bogus"`},
		{[]string{"-exp", "run", "-design", "nope"}, `unknown design: "nope"`},
		{[]string{"-exp", "run", "-scale", "1"}, "N must be >= 2"},
		{[]string{"-exp", "topo", "-design", "dm"}, `design "dm": no String Figure topology`},
		{[]string{"-exp", "topo", "-format", "svg"}, `unknown format "svg"`},
	} {
		stdout, stderr, code := sfexp(c.args...)
		if code != 1 || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("sfexp %s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(c.args, " "), code, stdout, stderr, c.want)
		}
	}
}
