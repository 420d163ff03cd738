package experiments

import stringfigure "repro"

// cluster, when set via UseCluster, is attached to every network the
// experiment harness builds, so the sweep- and saturation-heavy figures
// (8/10/11/12) fan their points across remote sfworker processes through
// the same Sweep and Saturation calls. Results are bit-identical to
// in-process execution, which is what runs while the cluster has no
// workers.
var cluster *stringfigure.Cluster

// UseCluster routes the harness's sweeps and saturation searches through
// c (nil restores pure in-process execution). cmd/sfexp calls this when
// -listen is set.
func UseCluster(c *stringfigure.Cluster) { cluster = c }

// netOptions assembles the standard construction options for one design,
// including the cluster attachment when one is configured.
func netOptions(kind string, n int, seed int64) []stringfigure.Option {
	opts := []stringfigure.Option{
		stringfigure.WithDesign(kind),
		stringfigure.WithNodes(n),
		stringfigure.WithSeed(seed),
	}
	if cluster != nil {
		opts = append(opts, stringfigure.WithCluster(cluster))
	}
	return opts
}
