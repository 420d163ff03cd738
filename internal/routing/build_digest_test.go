package routing_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/design"
	"repro/internal/golden"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The golden build digests pin what a design build produces, byte for
// byte: the String Figure link lists in generation order, the out-adjacency,
// every routing table's entries in storage order (the order the column
// kernel reads them in, which Entries' sorted copy would hide), and the
// tables and reconfiguration's link and table counters after three
// gate-offs. A change to how a network is built must leave the file
// untouched; rewrite testdata/golden_build_digests.json only on purpose:
//
//	go test ./internal/routing -run TestGoldenBuildDigests -update

// buildDigest holds one design's digests, one per part so a diff names the
// part that moved. Links and Gated are empty for designs without a String
// Figure topology or without reconfiguration.
type buildDigest struct {
	Links  string `json:",omitempty"`
	Out    string
	Tables string `json:",omitempty"`
	Gated  string `json:",omitempty"`
}

// buildDigestSpecs lists the digested builds: every design at N = 16, 64
// and 256, sf at 1024, and sf's two wire variants at 64.
func buildDigestSpecs() map[string]design.Spec {
	specs := map[string]design.Spec{
		"sf/N1024":       {Kind: "sf", N: 1024, Seed: 1},
		"sf/N64/uni":     {Kind: "sf", N: 64, Seed: 1, Unidirectional: true},
		"sf/N64/noshort": {Kind: "sf", N: 64, Seed: 1, NoShortcuts: true},
	}
	for _, kind := range design.Names {
		for _, n := range []int{16, 64, 256} {
			specs[fmt.Sprintf("%s/N%d", kind, n)] = design.Spec{Kind: kind, N: n, Seed: 1}
		}
	}
	return specs
}

func digestOf(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

func hashLinks(h hash.Hash, links []topology.Link) {
	fmt.Fprintf(h, "%d links\n", len(links))
	for _, l := range links {
		fmt.Fprintf(h, "%d %d %d %d %d\n", l.From, l.To, l.Space, l.Type, l.Hops)
	}
}

func hashTables(h hash.Hash, tables []*routing.Table) {
	for _, tb := range tables {
		fmt.Fprintf(h, "table %d\n", tb.Node)
		for _, e := range tb.StorageEntries() {
			fmt.Fprintf(h, "%d %d %t\n", e.Node, e.Via, e.TwoHop)
		}
	}
}

// digestBuild builds spec and digests it; on a reconfigurable design it
// then gates off three nodes and digests the tables and Stats counters.
func digestBuild(t *testing.T, spec design.Spec) buildDigest {
	d, err := design.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var bd buildDigest
	if d.SF != nil {
		bd.Links = digestOf(func(h hash.Hash) {
			hashLinks(h, d.SF.Rings)
			hashLinks(h, d.SF.Extras)
			hashLinks(h, d.SF.Shortcuts)
		})
	}
	bd.Out = digestOf(func(h hash.Hash) {
		for v, nbrs := range d.Out {
			fmt.Fprintf(h, "%d: %v\n", v, nbrs)
		}
	})
	g, ok := d.Alg.(*routing.Greediest)
	if !ok {
		return bd
	}
	bd.Tables = digestOf(func(h hash.Hash) { hashTables(h, g.Tables) })
	if !d.Reconfigurable {
		return bd
	}
	net := reconfig.Adopt(d.SF, d.Out, g)
	for _, v := range []int{1, d.N / 2, d.N - 1} {
		if _, err := net.Gate(v, false); err != nil {
			t.Fatal(err)
		}
	}
	bd.Gated = digestOf(func(h hash.Hash) {
		hashTables(h, g.Tables)
		s := net.Stats
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", s.Reconfigs, s.LinksDisabled, s.LinksEnabled,
			s.HealedByShortcut, s.HealedBySwitch, s.TablesRebuilt)
	})
	return bd
}

// TestGoldenBuildDigests compares every digested build with the committed
// table.
func TestGoldenBuildDigests(t *testing.T) {
	got := map[string]buildDigest{}
	for name, spec := range buildDigestSpecs() {
		got[name] = digestBuild(t, spec)
	}
	golden.JSON(t, "testdata/golden_build_digests.json", got)
}
