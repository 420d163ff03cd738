package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/cache"
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

// goldenTraces pins Generate's output to history: the digests were recorded
// at commit 155518d (per-set-slices cache model, slice-queue keyValue) for
// socket 0 of a Seed-1 session at N=128 — workload seed 1, generator seed
// 101 — at the benchmark's trace length and at a longer one. They change
// only when the access models, the cache semantics or the RNG draw order
// change on purpose; a mismatch prints the digest to paste here.
var goldenTraces = []struct {
	workload string
	ops      int
	digest   string
}{
	{"wordcount", 400, "4ed46fb382cc223e3fe3dd598acd2d04a128b90241e73ad7dcc8a40e061ec928"},
	{"grep", 400, "f70f48b4449decbff88be1dfc012bde62a0b169d308f6b53dedbdf6d90e813a6"},
	{"sort", 400, "fc2f1cec12067d51be1eff4c28c6c013dd2fbb566ea7906bde9d28610b089477"},
	{"pagerank", 400, "d2a0ecf38baf7fbbe6afb69f0c56d477196e2beb4df402da4a7ebce8f679d25b"},
	{"redis", 400, "0357aeac3130f50f4216ad13480559d7ddbcfbad33ff475b6bdc5adec2b93f2d"},
	{"memcached", 400, "fedc5047c426da9c40b0bf71a7f6ae1ef2e9edbf2928f3c7ad4252329e9627a0"},
	{"kmeans", 400, "6790140f81b597a276455dbc9bbf5363c0959dc4c8b13fd55d8966e79d10c371"},
	{"matmul", 400, "7294b90e99d51614f7c62c35d1727bd86d1937e9a86dd9d339a02ac65e08ec35"},
	{"wordcount", 3000, "7dde36541441184625f44f22a6535cb77e9111e4ed8213ff24252c496d586364"},
	{"grep", 3000, "d4c60005a94308d9517da0c4b5240b644e31be15dacd382c7a1abc16a5bac782"},
	{"sort", 3000, "3b7062e2663c61584b5c254853fe3f55491a8af564dbe15a9c3af7c73eb0203c"},
	{"pagerank", 3000, "f7034779863f71cabd0253aef21e0193152e3afcf74069ce84cd5605222760d7"},
	{"redis", 3000, "009ddf998d4d65d855176bf118f0e46c887a8a9a7a0326d359641e1e00ce7b95"},
	{"memcached", 3000, "ea05ad41402bc99723ee3c47ae682a0a1390c5ed41a0d65303a076316c0e0458"},
	{"kmeans", 3000, "1eca10195420f3fa285f6f7473b00a157925103b36237d2a27e0f4b94c230f5e"},
	{"matmul", 3000, "12e4c941c0584a5d6170ee50ae4803d67def171ea89e74aeb9b2db3e863d1de2"},
}

func TestGoldenTraceDigests(t *testing.T) {
	m := memnode.NewAddressMap(128)
	for _, g := range goldenTraces {
		w, err := NewWorkload(g.workload, m.CapacityBytes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", g.workload, err)
		}
		tr, err := Generate(w, m, g.ops, 101)
		if err != nil {
			t.Fatalf("%s/%d: %v", g.workload, g.ops, err)
		}
		if got := traceDigest(tr); got != g.digest {
			t.Errorf("%s ops=%d: digest %s, golden %s", g.workload, g.ops, got, g.digest)
		}
	}
	if len(goldenTraces) != 2*len(WorkloadNames) {
		t.Errorf("golden table has %d rows, want two per Table IV workload (%d)",
			len(goldenTraces), 2*len(WorkloadNames))
	}
}

// The golden synthesis counts pin the work of a synthesis the way the golden
// digests pin its output: how many warm-up accesses missed L1 and were
// logged, how many units the collection made live, how many log entries
// they replayed through L2 and L3, and how many raw accesses collection
// took. A change to the warm-up's cost shows as an exact diff of the file.
// Rewrite it only on purpose:
//
//	go test ./internal/trace -run TestGoldenSynthesisCounts -update
var updateSynthesisCounts = flag.Bool("update", false,
	"rewrite testdata/golden_synthesis_counts.json from the current code")

const goldenSynthesisCountsFile = "testdata/golden_synthesis_counts.json"

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
	var logged, replayed int64
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
			logged += h.Logged
			replayed += h.Replayed
		}
	}
	t.Logf("%d warm-up entries logged, %d replayed (%.1f%%)", logged, replayed, 100*float64(replayed)/float64(logged))
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateSynthesisCounts {
		if err := os.WriteFile(goldenSynthesisCountsFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenSynthesisCountsFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want map[string]synthesisCounts
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(got)) {
		if got[key] != want[key] {
			t.Errorf("%s: %+v, golden %+v", key, got[key], want[key])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, want %d", goldenSynthesisCountsFile, len(want), len(got))
	}
}
