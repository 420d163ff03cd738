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

// goldenSocketTraces extends goldenTraces to the other streams a Seed-1
// session draws: sockets 1–3 at N=128 with 400 ops (workload seeds 2–4 and
// generator seeds 102–104, as the session layer derives them), and socket
// 0 of every workload at N=32 with 1000 ops, the shape of sfexp -exp
// fig12a -quick. The digests were recorded at commit 338ed13.
var goldenSocketTraces = []struct {
	nodes        int
	workload     string
	ops          int
	wseed, gseed int64
	digest       string
}{
	{128, "wordcount", 400, 2, 102, "c95b072c69faabf6f465494e0c4f2b5eea9b86654cdafc5d370849ab8f45bffe"},
	{128, "grep", 400, 2, 102, "088b61bf14632f53e377fc44beb703e952b4641224ca92ebe699373b3d69ad20"},
	{128, "sort", 400, 2, 102, "4a56af447f5f38a73e9511cc7c53b3f7870fde33425f49cb4e9906558ee3ef0f"},
	{128, "pagerank", 400, 2, 102, "aed67b502d87fed8c0f20531b17d7fc31f78f4315c45a1965a0d5d82eefc7dbf"},
	{128, "redis", 400, 2, 102, "8d276f515549211f5b4e0d48b549e185ce2adaa446a085ef3ffb6c2783a7ab9d"},
	{128, "memcached", 400, 2, 102, "62e0f65d88911eba8099ee57ee654baf0cf2940cdddf9df4a8b379ffe5284284"},
	{128, "kmeans", 400, 2, 102, "b63a25dd888f829adb2faab8d251621fbb76b35e67d9f7bef0edc601b9d0bb39"},
	{128, "matmul", 400, 2, 102, "b565db6495e9a9d84e9f0b5d16939d650d43a91e3cb948b91c807875c38dce10"},
	{128, "wordcount", 400, 3, 103, "a28d1caebf47774f563203f8a76acbca47d1ef1a144b2d3601164ff3a0a081ed"},
	{128, "grep", 400, 3, 103, "e64957ab5c3191ce2cb01a5fc6bc0aebad1d72a7245d5a961a03d0abf1b46147"},
	{128, "sort", 400, 3, 103, "d8b81686b0e61075d67ea83c71a28062ae487a932bff84d95b01318f151b185d"},
	{128, "pagerank", 400, 3, 103, "3825ee4e9d81cdf5a350486c888702182448cc387a079a5de4e67651851fd1b1"},
	{128, "redis", 400, 3, 103, "ee1c2ba82916fffe6ff25019aeb334bc41df492c9a68f10cf86d25c9e5c09a40"},
	{128, "memcached", 400, 3, 103, "a63e62d084a4a66b6fb28533ba09103c66bee6a2329bfd46b23358c444416f36"},
	{128, "kmeans", 400, 3, 103, "b61d3123e7c5c9c5bdb906885075aa54119d26d4cbcbb2562e3a82b9fb3301c1"},
	{128, "matmul", 400, 3, 103, "4e768292ede91dc70e0d3b990ca19ad9633090bc72a0118c2c3e5d98002d4707"},
	{128, "wordcount", 400, 4, 104, "97f61c3e72c06c971187177c64a5c4326fd7feee3763aa54e30082ad0991843b"},
	{128, "grep", 400, 4, 104, "c4459e6bdeb988fb1c3a11c9417ddbdb1fe22df91b750b1f56dde218b49f55ab"},
	{128, "sort", 400, 4, 104, "be6efb3d24aa8191f908e1a94a2fbdcaa035d96a6c779f965db14b8105103053"},
	{128, "pagerank", 400, 4, 104, "5f192a43f0cafcab75d4ab0c4c974f252ce08e808034c011beca34b1b7e3893a"},
	{128, "redis", 400, 4, 104, "be0cb0926c6804937a0c003d7a0f68c6a3e8abe919502ffaceb83bda6f19fcb7"},
	{128, "memcached", 400, 4, 104, "95c568bd545e88664bdb7187f991ddfcf8f14a6625c2b7fb9ae63550c85e4cb0"},
	{128, "kmeans", 400, 4, 104, "21d3b80b658d7a6c5f49b22b98e35576ab6c892f50166248a910b638bade1b9b"},
	{128, "matmul", 400, 4, 104, "3046490b110e4f00895b02c44ddfd524960d49c518404329218f5b533ece8ab6"},
	{32, "wordcount", 1000, 1, 101, "db7511308d578c5ee6565b6b7cded95da790ff4db8201022434b07a3b246c430"},
	{32, "grep", 1000, 1, 101, "ecf31a7275fe0830458d6cf5bb801479a9b5c14ec6a8e9e438907739e6750e27"},
	{32, "sort", 1000, 1, 101, "4c102ca1d256eef5d5d2bb9b1c236cdcf747192d7807a788e16323b74390f51c"},
	{32, "pagerank", 1000, 1, 101, "5a6fa87c95ca81131f47d5fdb138a52fd2a55671954c461f5a192ddc9376dead"},
	{32, "redis", 1000, 1, 101, "4352543507b256cb49a6b143418f61dd8af51f3047ad20df5ed2da295df21255"},
	{32, "memcached", 1000, 1, 101, "22c97278c854d7cd4dc8f3b756717119838dee664ba6f2a98773b8b3989f9b89"},
	{32, "kmeans", 1000, 1, 101, "ad77037b28111fae00d025952b477d44422a2816562aa674e53813396850c792"},
	{32, "matmul", 1000, 1, 101, "7adcfc1af45488d895c95a7dad1241bb206fec2ef048ff9fd85dd488da11db95"},
}

func TestGoldenTraceDigests(t *testing.T) {
	check := func(nodes int, name string, ops int, wseed, gseed int64, digest string) {
		t.Helper()
		m := memnode.NewAddressMap(nodes)
		w, err := NewWorkload(name, m.CapacityBytes(), wseed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := Generate(w, m, ops, gseed)
		if err != nil {
			t.Fatalf("%s/%d: %v", name, ops, err)
		}
		if got := traceDigest(tr); got != digest {
			t.Errorf("N=%d %s ops=%d seeds %d/%d: digest %s, golden %s",
				nodes, name, ops, wseed, gseed, got, digest)
		}
	}
	for _, g := range goldenTraces {
		check(128, g.workload, g.ops, 1, 101, g.digest)
	}
	for _, g := range goldenSocketTraces {
		check(g.nodes, g.workload, g.ops, g.wseed, g.gseed, g.digest)
	}
	if len(goldenTraces) != 2*len(WorkloadNames) {
		t.Errorf("golden table has %d rows, want two per Table IV workload (%d)",
			len(goldenTraces), 2*len(WorkloadNames))
	}
	if len(goldenSocketTraces) != 4*len(WorkloadNames) {
		t.Errorf("socket golden table has %d rows, want four per Table IV workload (%d)",
			len(goldenSocketTraces), 4*len(WorkloadNames))
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
