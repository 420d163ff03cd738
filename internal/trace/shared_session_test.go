package trace_test

import (
	"encoding/json"
	"testing"

	stringfigure "repro"
	"repro/internal/trace"
)

// TestSessionResultIndependentOfStore runs one closed-loop session per
// design with the store cold, warm from itself, and warm from the other
// design's session. The three Results must be byte-identical: a session
// that wrote its router remap or thread compression into the shared Ops
// would change what the next design replays.
func TestSessionResultIndependentOfStore(t *testing.T) {
	cfg := stringfigure.SessionConfig{Ops: 300, Sockets: 2, Window: 8, Threads: 4, Seed: 5}
	run := func(net *stringfigure.Network) string {
		t.Helper()
		res, err := net.NewSession(cfg).Run(stringfigure.TraceWorkload{Workload: "redis"})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(enc)
	}
	// afb concentrates several memory nodes on a router, so its remap
	// differs from sf's at the same node count.
	nets := map[string]*stringfigure.Network{}
	for _, kind := range []string{"sf", "afb"} {
		net, err := stringfigure.New(stringfigure.WithDesign(kind), stringfigure.WithNodes(64), stringfigure.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		nets[kind] = net
	}
	cold := map[string]string{}
	for kind, net := range nets {
		trace.ResetSharedForTest()
		cold[kind] = run(net)
		if warm := run(net); warm != cold[kind] {
			t.Errorf("%s: warm store changed the result\ncold %s\nwarm %s", kind, cold[kind], warm)
		}
	}
	if cold["sf"] == cold["afb"] {
		t.Fatal("the two designs produced one result; the test would prove nothing")
	}
	for _, order := range [][2]string{{"sf", "afb"}, {"afb", "sf"}} {
		trace.ResetSharedForTest()
		run(nets[order[0]])
		if got := run(nets[order[1]]); got != cold[order[1]] {
			t.Errorf("%s after %s filled the store: result differs from its cold run\ncold %s\ngot  %s",
				order[1], order[0], cold[order[1]], got)
		}
	}
}
