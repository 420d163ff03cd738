// Package reconfig implements the elastic network scale mechanisms of the
// String Figure paper (Section III-C): dynamic reconfiguration for power
// management (gating memory nodes off and on) and static network expansion
// and reduction for design reuse. It owns the dynamic state of a deployed
// network — which nodes are alive and which wires are switched in — and the
// routing tables that follow it. A network has one router: Adopt takes over
// the router its design already built (New builds a private one), and Copy
// gives a caller an engine of its own over the same topology and tables,
// whose reconfigurations leave the original untouched.
//
// Every alive-mask change — Gate powering one node on or off, SetAlive
// mounting a whole mask — is one atomic step: switch the links (ring
// healing through shortcut wires and the mux-based topology switch of
// Figure 7), counting them, then swap in rebuilt tables for every alive
// router whose one- or two-hop neighborhood changed. Gate returns the
// links the step switched on. The paper's four-step protocol also blocks
// the affected entries before the switch, invalidates and promotes them,
// and unblocks them after, to keep packets in flight safe while hardware
// reconfigures over real time. Those bits are not modelled: the step runs
// between simulation slices, so no packet reads a half-edited table; the
// transient is the wake deadlines a gate schedule sets on the links a
// gate-off switches on, and the escape channels keep it deadlock-free.
//
// The invariant maintained across every reconfiguration is that each virtual
// space's ring is complete over the alive nodes, which preserves the Lemma 1
// progress guarantee and therefore loop-free greedy delivery between any two
// alive nodes.
package reconfig
