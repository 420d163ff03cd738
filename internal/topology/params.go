package topology

// PortsForN returns the String Figure / S2 router port count used at each
// network scale in the paper's evaluation (Figure 8): four ports up to 128
// nodes, eight ports beyond.
func PortsForN(n int) int {
	if n <= 128 {
		return 4
	}
	return 8
}

// NewS2 builds the S2-ideal baseline: the same balanced random topology as
// String Figure but without shortcut wires and without reconfiguration
// support (down-scaling an S2 network requires regenerating it, which is
// what the experiment harness does).
func NewS2(n, ports int, seed int64, bidirectional bool) (*StringFigure, error) {
	return NewStringFigure(Config{
		N:             n,
		Ports:         ports,
		Seed:          seed,
		Bidirectional: bidirectional,
	})
}

// NewPaperSF builds a String Figure topology with the defaults used for the
// paper's evaluation scales: PortsForN ports, shortcuts enabled, and
// bidirectional ring adjacency (the S2-style construction the paper builds
// on, giving each node degree p). The strict uni-directional variant — one
// wire per port half, out-degree p/2, clockwise-distance routing — is kept
// as an ablation via Config.Bidirectional=false; experiments.AblationUniBidi
// (sfexp -exp ablate) measures the gap between the two.
func NewPaperSF(n int, seed int64) (*StringFigure, error) {
	return NewStringFigure(Config{
		N:             n,
		Ports:         PortsForN(n),
		Seed:          seed,
		Shortcuts:     true,
		Bidirectional: true,
	})
}
