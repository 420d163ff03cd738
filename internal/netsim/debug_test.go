package netsim

import (
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestDebugStuckState dumps the simulator state after a stall; it is a
// development aid kept as a regression probe (it fails only if the network
// cannot drain).
func TestDebugStuckState(t *testing.T) {
	sf, err := topology.NewStringFigure(topology.Config{N: 24, Ports: 4, Seed: 5, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(SFConfig(sf, 2))
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := traffic.NewPattern("uniform", 24)
	s.SetPattern(0.2, pat)
	s.Run(500)
	s.SetPattern(0, pat)
	s.Run(5000)
	if s.Results().InFlight == 0 {
		return // drained fine
	}
	count := 0
	for _, r := range s.routers {
		for i := range r.in {
			iu := &r.in[i]
			if iu.Len() == 0 {
				continue
			}
			count++
			if count > 12 {
				break
			}
			f := *iu.front()
			p := s.pkt(f.pkt)
			port := i / s.vcs
			vc := i % s.vcs
			var creditStr string
			if iu.route >= 0 && int(iu.route) < len(r.outNbr) {
				o := r.ovcs[int(iu.route)*s.vcs+int(iu.outVC)]
				creditStr = fmt.Sprintf("credits[route][outVC]=%d owner=%d",
					o.cred, o.owner)
			}
			t.Logf("router %d inPort %d (up=%d) vc %d: qlen=%d route=%d outVC=%d blocked=%d head=%v tail=%v pkt(src=%d dst=%d advc=%d) %s",
				r.id, port, r.inUp[port], vc, iu.Len(), iu.route, iu.outVC, iu.blocked,
				f.head, f.tail, p.src, p.dst, p.advc, creditStr)
		}
		if r.srcQ.Len() > 0 {
			t.Logf("router %d srcQ len=%d", r.id, r.srcQ.Len())
		}
	}
	t.Fatalf("network stuck with %d flits in flight", s.Results().InFlight)
}
