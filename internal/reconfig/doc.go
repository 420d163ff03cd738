// Package reconfig implements the elastic network scale mechanisms of the
// String Figure paper (Section III-C): dynamic reconfiguration for power
// management (gating memory nodes off and on) and static network expansion
// and reduction for design reuse. It owns the dynamic state of a deployed
// network — which nodes are alive and which wires are switched in — and
// drives the four-step atomic reconfiguration protocol against the routing
// tables. A network has one router: Adopt takes over the router its design
// already built (New builds a private one), and the protocol edits that
// router's tables in place:
//
//  1. block the routing-table entries that refer to the affected node,
//  2. disable/enable links (ring healing through shortcut wires and the
//     mux-based topology switch of Figure 7),
//  3. invalidate/validate and promote the corresponding entries,
//  4. unblock the entries.
//
// The invariant maintained across every reconfiguration is that each virtual
// space's ring is complete over the alive nodes, which preserves the Lemma 1
// progress guarantee and therefore loop-free greedy delivery between any two
// alive nodes.
package reconfig
