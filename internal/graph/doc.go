// Package graph provides the graph-theoretic substrate for the String Figure
// reproduction: a compact directed multigraph representation shared by every
// topology, breadth-first shortest paths, all-pairs path-length statistics,
// Dinic max-flow, and the empirical bisection-bandwidth methodology from
// Section V of the paper (50 random cuts, maximum flow across each cut).
//
// A widened channel is capacity, not parallel edges: an ODM link of width w
// is one edge per direction with Cap w, so breadth-first search scans it
// once and max-flow sees its full width. Max-flow runs on one residual
// network per graph (compressed sparse rows with a super-source and
// super-sink arc per node), built once and reset for every cut, with a
// limit at which a cut's flow may stop early.
package graph
