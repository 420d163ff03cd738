// Package routing implements the routing protocols of the String Figure
// paper: the greediest compute+table hybrid protocol over multi-space
// virtual coordinates (Section III-B), the routing-table model of one- and
// two-hop entries (Section IV, Figure 6(b)), adaptive first-hop selection
// driven by port-load counters, and the baseline routing schemes (XY +
// adaptive for meshes, minimal + adaptive for flattened butterflies).
//
// A Table is built from an adjacency and never changed afterwards;
// reconfiguration replaces the tables it affects. Greediest routing reads a
// destination only through MD(·, dst), so besides the per-pair candidate
// list (CandidatesInto) it offers a column kernel, Greediest.FirstHopColumn:
// every router's first hop toward one destination from one MD evaluation
// per node, over a compact per-table copy of the entries built on first use.
package routing
