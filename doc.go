// Package stringfigure is the public API of the String Figure memory
// network reproduction (Ogleari et al., HPCA 2019): a scalable, elastic
// memory network built from a balanced random topology over virtual
// coordinate spaces, greediest compute+table routing, and shortcut-based
// reconfiguration for power management and design reuse.
//
// The package wraps the building blocks under internal/ — topology
// generation, routing, the flit-level network simulator, the DRAM-timing
// memory nodes, and the reconfiguration engine — behind one front door:
//
//	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(7))
//	path, err := net.Route(3, 42)
//
// Every design of the paper's evaluation is a first-class citizen: the same
// constructor builds the DM/ODM mesh baselines, the FB/AFB flattened
// butterflies, the S2 random topology and String Figure itself, all runnable
// through the same sessions and sweeps:
//
//	fb, err := stringfigure.New(stringfigure.WithDesign("fb"), stringfigure.WithNodes(128))
//
// Simulation runs go through the Workload/Session/Sweep layer, which covers
// synthetic traffic (Figures 8-11), trace-driven closed-loop memory
// co-simulation with DRAM timing (Figure 12), and parallel rate sweeps:
//
//	sess := net.NewSession(stringfigure.SessionConfig{Rate: 0.2, Seed: 1})
//	res, err := sess.Run(stringfigure.SyntheticWorkload{Pattern: "uniform"})
//	res, err = sess.Run(stringfigure.TraceWorkload{Workload: "redis"})
//
//	for r := range net.Sweep(cfg, points, 0) { ... } // fan out over GOMAXPROCS
//
// Saturation searches (Figure 10's metric) fan candidate rates across the
// same worker pool; see Network.Saturation. A single *Network may run many
// sessions concurrently; reconfiguration calls (GateOff, GateOn, SetMounted)
// publish a new state of the network without waiting for in-flight runs,
// which finish on the state they started on.
//
// Sweeps also run cluster-wide: attach a Cluster (NewCluster, WithCluster)
// and the same Sweep and Saturation calls shard points over remote
// sfworker processes (cmd/sfworker, ServeWorker) with bit-identical
// results — the execution layer behind the paper's thousand-node scales.
//
// Running simulations are observable while they run. SessionConfig.WithTelemetry
// attaches a sink that receives TelemetrySnapshot interval records out of
// live sessions and sweeps — including distributed sweeps, whose remote
// workers forward their snapshots over the wire so the merged stream looks
// exactly like a local run's. Sinks compose: each WithTelemetry adds one,
// and every sink sees every snapshot in attachment order.
// SessionConfig.Scenario (ChurnTrace for an explicit gate list) schedules
// mid-run reconfiguration so the paper's Section VI transients appear in
// that stream. ServeMetrics exposes the same stream (plus per-worker
// cluster liveness) as a Prometheus-text /metrics endpoint, fed by its
// Observe sink:
//
//	m, err := stringfigure.ServeMetrics(":9090")
//	m.WatchCluster(cluster)
//	cfg = cfg.WithTelemetry(1000, sink).WithTelemetry(0, m.Observe)
//	for r := range net.Sweep(cfg, points, 0) { ... }
//
// Telemetry never perturbs results: Results are bit-identical with
// telemetry on or off, at any worker count.
//
// See ARCHITECTURE.md for the layer map and the determinism invariants,
// the package's Example functions for runnable programs (go test runs
// them and checks their output), and cmd/sfexp for the experiment harness
// that regenerates the paper's figures.
package stringfigure
