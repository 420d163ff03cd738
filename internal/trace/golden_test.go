package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/golden"
	"repro/internal/memnode"
)

// traceDigest hashes everything Generate returns that a session consumes:
// every op field in order, RawAccesses and the bits of MissRate.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(len(tr.Ops)))
	for _, op := range tr.Ops {
		put(uint64(op.Instr))
		put(op.Addr)
		put(uint64(op.Node))
		put(flag(op.Write)<<1 | flag(op.Writeback))
	}
	put(uint64(tr.RawAccesses))
	put(math.Float64bits(tr.MissRate))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTraceDigests digests, for every Table IV workload, the trace
// streams gen makes for these shapes: socket 0 of a Seed-1 session at N=128
// (workload seed 1, generator seed 101) at the benchmark's trace length and
// at a longer one, sockets 1–3 of that session (workload seeds 2–4,
// generator seeds 102–104, as the session layer derives them), and socket
// 0 at N=32 with 1000 ops, the shape of sfexp -exp fig12a -quick.
// testdata/golden_trace_digests.json pins them. They change only when the
// access models, the cache semantics or the RNG draw order change on
// purpose:
//
//	go test ./internal/trace -run TestGoldenTraceDigests -update
func goldenTraceDigests(t *testing.T, gen func(name string, m memnode.AddressMap, ops int, wseed, gseed int64) (*Trace, error)) map[string]string {
	got := map[string]string{}
	for _, s := range []struct {
		nodes, ops int
		seed       int64
	}{{128, 400, 1}, {128, 3000, 1}, {128, 400, 2}, {128, 400, 3}, {128, 400, 4}, {32, 1000, 1}} {
		m := memnode.NewAddressMap(s.nodes)
		for _, name := range WorkloadNames {
			key := fmt.Sprintf("n%d-ops%d-seed%d/%s", s.nodes, s.ops, s.seed, name)
			tr, err := gen(name, m, s.ops, s.seed, 100+s.seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = traceDigest(tr)
		}
	}
	return got
}

// generateNamed is Shared without the store: NewWorkload, then Generate.
func generateNamed(name string, m memnode.AddressMap, ops int, wseed, gseed int64) (*Trace, error) {
	w, err := NewWorkload(name, m.CapacityBytes(), wseed)
	if err != nil {
		return nil, err
	}
	return Generate(w, m, ops, gseed)
}

func TestGoldenTraceDigests(t *testing.T) {
	golden.JSON(t, "testdata/golden_trace_digests.json", goldenTraceDigests(t, generateNamed))
}

// The golden synthesis counts pin the work of a synthesis the way the golden
// digests pin its output: how many warm-up accesses missed L1 and were
// logged, how many units the collection made live, how many log entries
// they replayed through L2 and L3, and how many raw accesses collection
// took. A change to the warm-up's cost shows as an exact diff of
// testdata/golden_synthesis_counts.json. Rewrite it only on purpose:
//
//	go test ./internal/trace -run TestGoldenSynthesisCounts -update

// synthesisCounts is one synthesis's work.
type synthesisCounts struct {
	Logged, Materialized, Replayed, RawAccesses int64
}

// TestGoldenSynthesisCounts synthesizes socket 0's trace (workload seed 1,
// generator seed 101) of every Table IV workload at two session shapes:
// N=128 with 400 ops, as in sfperf's trace-loop-n128, and N=32 with 1000
// ops, as in sfexp -exp fig12a -quick.
func TestGoldenSynthesisCounts(t *testing.T) {
	got := map[string]synthesisCounts{}
	for _, shape := range []struct{ nodes, ops int }{{128, 400}, {32, 1000}} {
		m := memnode.NewAddressMap(shape.nodes)
		for _, name := range WorkloadNames {
			w, err := NewWorkload(name, m.CapacityBytes(), 1)
			if err != nil {
				t.Fatal(err)
			}
			h := cache.NewPaperHierarchy()
			tr, err := generate(h, w, m, shape.ops, 101)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("n%d-ops%d/%s", shape.nodes, shape.ops, name)
			got[key] = synthesisCounts{h.Logged, h.Materialized, h.Replayed, tr.RawAccesses}
		}
	}
	golden.JSON(t, "testdata/golden_synthesis_counts.json", got)
}
