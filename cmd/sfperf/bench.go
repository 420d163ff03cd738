package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// opTimeout bounds one op: an op that has not returned by then counts as
// deadlocked and failed. The slowest op of any workload takes under 10 s.
const opTimeout = 120 * time.Second

// simCounts are the simulated quantities of one op. For a fixed seed and
// op count their sums repeat exactly, on any host and at any speed.
type simCounts struct {
	Cycles, Injected, Delivered, Escaped, Dropped int64
	MemCycles, ReadsCompleted, DRAMAccesses       int64
}

func (c *simCounts) add(o simCounts) {
	c.Cycles += o.Cycles
	c.Injected += o.Injected
	c.Delivered += o.Delivered
	c.Escaped += o.Escaped
	c.Dropped += o.Dropped
	c.MemCycles += o.MemCycles
	c.ReadsCompleted += o.ReadsCompleted
	c.DRAMAccesses += o.DRAMAccesses
}

// opOut is what one op delivered to its caller.
type opOut struct {
	// result is the canonical encoding of everything the op returned; the
	// digest and the determinism re-check hash it.
	result []byte
	counts simCounts
	// label groups ops of different kinds inside one workload (the
	// experiment id of a figures-quick op); empty when all ops are alike.
	label string
	// firstResultMs and submitMs are the service-cluster front-door
	// timings: submit to first streamed result, and the submit call alone.
	firstResultMs, submitMs float64
	// snapshots is the number of telemetry snapshots the op's sink saw.
	snapshots int
	// childRSSKB is the peak resident set of the child process that ran
	// the op, for workloads whose ops are child processes.
	childRSSKB int64
}

// bench is one workload's implementation. The runner calls setUp one or
// more times (each call replaces the previous state), then op for every
// index of the op list; a traced run also calls probe after each op and
// finish once at the end.
type bench interface {
	// setUp runs the workload's whole set-up sequence from scratch.
	setUp() error
	// close releases what the last setUp built.
	close()
	// op delivers op i through the workload's front door and checks its
	// health; any error fails the op.
	op(ctx context.Context, i int) (opOut, error)
	// probe re-runs op i recomposed from exported layer calls, each call
	// in a span under one "probe" span, and checks the recomposition
	// against the product op.
	probe(ctx context.Context, i int, rec *recorder, product opOut) error
	// finish runs the workload's one-off layer probes and stores the
	// workload's own per-layer metrics. ops are the traced product ops.
	finish(rec *recorder, t totals, ops []timedOp, m map[string]float64) error
}

// timedOp is one executed op of a segment.
type timedOp struct {
	index int
	wall  time.Duration
	// refWall is the wall time of the same op run once more without a
	// span, next to the traced one (traced segments only).
	refWall time.Duration
	out     opOut
	err     error
}

// stopRule says when a segment ends: after a fixed number of ops, or at
// the first multiple of round ops once budget has elapsed. Ending on a
// round boundary keeps the mix of op kinds the same however fast the ops
// run.
type stopRule struct {
	ops    int
	budget time.Duration
	round  int
}

func (s stopRule) more(done int, elapsed time.Duration) bool {
	if s.budget > 0 {
		return elapsed < s.budget || done%s.round != 0
	}
	return done < s.ops
}

// segment is one closed-loop pass over the op list from index 0: the
// single client issues op i+1 only after op i has returned.
type segment struct {
	ops  []timedOp
	wall time.Duration
	// Go runtime work done inside the traced product ops alone, without
	// the reference ops and the probes that run beside them.
	allocBytes, gcCycles, gcPauseNs uint64
}

// runSegment runs ops 0, 1, 2, ... until stop says otherwise. With a
// recorder every product op runs in a "session.run" span and is followed
// by its layer probe; the same op also runs once without a span, before
// the traced one on even indices and after it on odd ones, so that the
// two walls compare under the same host conditions and cache warmth.
func runSegment(b bench, stop stopRule, rec *recorder) segment {
	var seg segment
	start := time.Now()
	for i := 0; stop.more(i, time.Since(start)); i++ {
		rec.setOp(i)
		op := timedOp{index: i}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		var ref opOut
		var refErr error
		reference := func() {
			refStart := time.Now()
			ref, refErr = b.op(ctx, i)
			op.refWall = time.Since(refStart)
		}
		if rec != nil && i%2 == 0 {
			reference()
		}
		var before, after runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&before)
		}
		op.wall = rec.time("session.run", func() { op.out, op.err = b.op(ctx, i) })
		if rec != nil {
			runtime.ReadMemStats(&after)
			seg.allocBytes += after.TotalAlloc - before.TotalAlloc
			seg.gcCycles += uint64(after.NumGC - before.NumGC)
			seg.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
			if i%2 == 1 {
				reference()
			}
			switch {
			case op.err != nil:
			case refErr != nil:
				op.err = refErr
			case !bytes.Equal(ref.result, op.out.result):
				op.err = fmt.Errorf("untraced and traced runs of the op returned different results")
			default:
				op.err = b.probe(ctx, i, rec, op.out)
			}
		}
		cancel()
		seg.ops = append(seg.ops, op)
	}
	rec.setOp(-1)
	seg.wall = time.Since(start)
	return seg
}

// runOne runs op 0 alone, outside any timed region.
func runOne(b bench) timedOp {
	return runSegment(b, stopRule{ops: 1}, nil).ops[0]
}

// digest hashes the ordered op results; a failed op hashes as its error
// marker, so a run with failures never matches a clean one.
func digest(ops []timedOp) string {
	h := sha256.New()
	for _, op := range ops {
		if op.err != nil {
			h.Write([]byte("failed"))
		} else {
			h.Write(op.out.result)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostInfo is the noise guard: what the run ran on, and a fixed integer
// spin loop timed before and after it. A run whose two calibrations
// differ by more than 10% shared its cores with something else.
type hostInfo struct {
	Nproc         int     `json:"nproc"`
	Gomaxprocs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision"`
	CalibBeforeMs float64 `json:"calib_ms_before"`
	CalibAfterMs  float64 `json:"calib_ms_after"`
	Noisy         bool    `json:"noisy"`
}

// calibSink keeps the spin loop's result alive.
var calibSink uint64

// calibrate times a fixed xorshift loop (about 0.12 s on a 2.1 GHz Xeon).
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// selfRSSKB is this process's peak resident set (VmHWM) in kB.
func selfRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// record is what one workload run reports to the parent process.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Host      hostInfo `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Samples is the number of latency samples behind the percentiles.
	Samples   int    `json:"samples"`
	Digest    string `json:"result_digest"`
	DigestOps int    `json:"digest_ops"`
	// Problems lists every failed op and failed check; empty means the
	// run's outputs are correct.
	Problems []string           `json:"problems"`
	Metrics  map[string]float64 `json:"metrics"`
}

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64 // > 0: time-bounded segments; 0: the fixed op list
	scale   float64 // fixed op list only: multiplies the op count
	traced  bool
	out     string // traced run: append the spans here
}

// env locates the module and the scratch space of a run.
type env struct {
	root string // module root: where go.mod and cmd/sfexp live
	tmp  string // scratch directory inside the checkout
}

// findEnv walks up from the working directory to the module root and
// places the scratch directory under its .bench_build.
func findEnv() (env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return env{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return env{}, fmt.Errorf("no go.mod above the working directory: run sfperf inside the repository")
		}
		dir = parent
	}
	return env{root: dir, tmp: filepath.Join(dir, ".bench_build", "tmp")}, nil
}

// setupBudget and maxSetupReps bound the repetition of cheap set-ups.
const (
	setupBudget  = time.Second
	maxSetupReps = 200
)

// runWorkload runs one workload once, untraced or traced, and returns its
// record. It fails only when the workload cannot be set up at all; failed
// ops and failed checks are reported in the record.
func runWorkload(w workload, opt options, e env) (record, error) {
	r := record{Workload: w.name, Seed: opt.seed, Traced: opt.traced, Metrics: map[string]float64{}}

	// Set-up repeats at least setupReps times and until setupBudget has
	// passed: the median of a few sub-millisecond set-ups is mostly jitter.
	minReps, budget := w.setupReps, setupBudget
	if opt.seconds == 0 && opt.scale < 1 {
		minReps = max(1, int(math.Round(float64(minReps)*opt.scale)))
		budget = time.Duration(float64(budget) * opt.scale)
	}
	b := w.build(opt, e)
	defer b.close()
	var setups []float64
	for begin := time.Now(); len(setups) < minReps || (time.Since(begin) < budget && len(setups) < maxSetupReps); {
		b.close()
		start := time.Now()
		if err := b.setUp(); err != nil {
			return r, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The warm-up op fills caches and finishes lazy set-up; it also
	// fixes op 0's reference result.
	warm := runOne(b)
	if warm.err != nil {
		r.Problems = append(r.Problems, fmt.Sprintf("warm-up op: %v", warm.err))
	}

	main := stopRule{ops: max(1, int(math.Round(float64(w.ops)*opt.scale))), round: w.round}
	if opt.seconds > 0 {
		main.budget = time.Duration(opt.seconds * float64(time.Second))
	}
	var rec *recorder
	if opt.traced {
		rec = newRecorder()
	}
	seg := runSegment(b, main, rec)

	// Determinism re-check: op 0 once more, after every other op has had
	// its chance to leak state into the workload.
	again := runOne(b)
	switch {
	case again.err != nil:
		r.Problems = append(r.Problems, fmt.Sprintf("op 0 re-run: %v", again.err))
	case seg.ops[0].err == nil && !bytes.Equal(again.out.result, seg.ops[0].out.result):
		r.Problems = append(r.Problems, "op 0 re-run returned a different result")
	case warm.err == nil && !bytes.Equal(again.out.result, warm.out.result):
		r.Problems = append(r.Problems, "op 0 returned a different result than the warm-up op")
	}

	var lat []float64
	var counts simCounts
	var firsts []float64
	// A child process's peak RSS swings upwards with the timing of its
	// garbage collector, so each kind of op counts with its lowest peak
	// over the passes, and the workload with its largest kind.
	childKB := map[string]int64{}
	for _, op := range seg.ops {
		r.Attempted++
		if op.err != nil {
			r.Failed++
			r.Problems = append(r.Problems, fmt.Sprintf("op %d: %v", op.index, op.err))
			continue
		}
		lat = append(lat, float64(op.wall.Nanoseconds())/1e6)
		counts.add(op.out.counts)
		if op.out.firstResultMs > 0 {
			firsts = append(firsts, op.out.firstResultMs)
		}
		if kb, seen := childKB[op.out.label]; op.out.childRSSKB > 0 && (!seen || op.out.childRSSKB < kb) {
			childKB[op.out.label] = op.out.childRSSKB
		}
	}
	peakKB := selfRSSKB()
	if len(childKB) > 0 {
		peakKB = 0
		for _, kb := range childKB {
			peakKB = max(peakKB, kb)
		}
	}
	r.Samples = len(lat)
	r.Digest, r.DigestOps = digest(seg.ops), len(seg.ops)

	m := r.Metrics
	if !opt.traced {
		m["setup_s"] = quantile(setups, 0.5)
		m["ops_per_s"] = float64(len(lat)) / seg.wall.Seconds()
		m["op_p50_ms"] = quantile(lat, 0.5)
		m["peak_rss_mb"] = float64(peakKB) / 1024
	} else {
		t := rec.totals()
		opMs := t.ms["session.run"]
		m["op_p90_ms"] = quantile(lat, 0.9)
		m["sim_cycles_per_s"] = ratio(float64(counts.Cycles), opMs/1e3)
		m["first_result_p50_ms"] = quantile(firsts, 0.5)
		m["trace_overhead_ratio"] = overheadRatio(seg.ops)
		m["netsim.cycles"] = float64(counts.Cycles)
		m["netsim.injected"] = float64(counts.Injected)
		m["netsim.delivered"] = float64(counts.Delivered)
		m["netsim.escaped"] = float64(counts.Escaped)
		m["netsim.dropped"] = float64(counts.Dropped)
		m["memsys.cycles"] = float64(counts.MemCycles)
		m["memsys.reads_completed"] = float64(counts.ReadsCompleted)
		m["memsys.dram_accesses"] = float64(counts.DRAMAccesses)
		n := float64(len(seg.ops))
		m["runtime.alloc_mb_per_op"] = float64(seg.allocBytes) / (1 << 20) / n
		m["runtime.gc_cycles"] = float64(seg.gcCycles)
		m["runtime.gc_pause_ms"] = float64(seg.gcPauseNs) / 1e6
		// The session layer's own cost: the product op minus what the
		// layer probe of the same op spent inside the layers below it.
		layers := t.ms["probe"] - t.selfMs["probe"]
		m["session.self_ms"] = (opMs - layers) / n
		m["session.share"] = ratio(opMs-layers, opMs)
		if err := b.finish(rec, t, seg.ops, m); err != nil {
			r.Problems = append(r.Problems, fmt.Sprintf("layer probes: %v", err))
		}
		if opt.out != "" {
			if err := appendSpans(opt.out, spanFile{Workload: w.name, Seed: opt.seed, Spans: rec.spans}); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}

// runGuarded is runWorkload between the two calibrations of the noise
// guard.
func runGuarded(w workload, opt options, e env) (record, error) {
	host := hostInfo{
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: vcsRevision(),
	}
	host.CalibBeforeMs = calibrate()
	r, err := runWorkload(w, opt, e)
	host.CalibAfterMs = calibrate()
	host.Noisy = math.Abs(host.CalibAfterMs-host.CalibBeforeMs) > 0.10*host.CalibBeforeMs
	r.Host = host
	return r, err
}

// overheadRatio is the traced wall over the untraced wall of the same ops.
func overheadRatio(ops []timedOp) float64 {
	var refNs, tracedNs int64
	for _, op := range ops {
		if op.err == nil {
			refNs += op.refWall.Nanoseconds()
			tracedNs += op.wall.Nanoseconds()
		}
	}
	return ratio(float64(tracedNs), float64(refNs))
}

// ratio is num/den, or 0 when there is nothing to divide by: a layer a
// workload did not exercise reads 0, never NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). It does not keep xs in order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// medianMs times fn reps times and returns the median in milliseconds.
func medianMs(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return quantile(xs, 0.5)
}
