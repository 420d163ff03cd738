package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

// figureIDs is one pass of figures-quick: the sfexp experiments whose
// -quick runs together take under ten seconds. fig12b (fig12a's
// computation printed as its other table), fig9b and ablate take as long
// again as this whole list and are left out, so that a pass fits the
// benchmark's run length.
var figureIDs = []string{"fig5", "fig9a", "table2", "bisect", "fig10", "fig11", "fig12a", "placement", "sweep"}

// figuresBench regenerates the paper's figures the way a user does: one
// freshly built sfexp, one child process per experiment id. Building the
// binary is the workload's set-up.
type figuresBench struct {
	seed int64
	root string
	tmp  string

	dir string // holds the built sfexp; the children's working directory
}

func (b *figuresBench) setUp() error {
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.tmp, "figures-")
	if err != nil {
		return err
	}
	b.dir = dir
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "sfexp"), "./cmd/sfexp")
	build.Dir = b.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/sfexp: %v\n%s", err, out)
	}
	return nil
}

func (b *figuresBench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// stripTimings drops sfexp's "-- <id> done in <wall> --" footers, the only
// lines of its output that change from run to run.
func stripTimings(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte{'\n'}) {
		if bytes.HasPrefix(line, []byte("-- ")) && bytes.Contains(line, []byte(" done in ")) {
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte{'\n'})
}

// op runs experiment i mod len(figureIDs) in a child sfexp; the child must
// exit 0, and its output without the timing footers is the op's result.
func (b *figuresBench) op(ctx context.Context, i int) (opOut, error) {
	id := figureIDs[i%len(figureIDs)]
	cmd := exec.CommandContext(ctx, filepath.Join(b.dir, "sfexp"),
		"-quick", "-seed", strconv.FormatInt(b.seed, 10), "-exp", id)
	cmd.Dir = b.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return opOut{}, fmt.Errorf("sfexp -exp %s: %v: %s", id, err, bytes.TrimSpace(stderr.Bytes()))
	}
	out := opOut{result: stripTimings(stdout.Bytes()), label: id}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.childRSSKB = ru.Maxrss
	}
	return out, nil
}

// probe has nothing to recompose: the op is a whole process.
func (b *figuresBench) probe(context.Context, int, *recorder, opOut) error { return nil }

func (b *figuresBench) finish(_ *recorder, _ totals, ops []timedOp, m map[string]float64) error {
	sum, count := map[string]float64{}, map[string]float64{}
	for _, op := range ops {
		if op.err == nil {
			sum[op.out.label] += op.wall.Seconds()
			count[op.out.label]++
		}
	}
	for id, s := range sum {
		m["experiments."+id+"_s"] = s / count[id]
	}
	return nil
}
