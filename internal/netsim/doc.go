// Package netsim is a flit-level, cycle-driven interconnect simulator — the
// Go substitute for the paper's SystemVerilog/PyMTL RTL framework (Section
// V). It models input-queued wormhole routers with virtual channels,
// credit-based flow control, round-robin switch allocation, per-hop SerDes
// latency, long-wire extra latency from the 2D placement, and the adaptive
// routing policy driven by output-port load counters.
//
// Deadlock avoidance follows Duato's protocol: packets travel on adaptive
// virtual channels under the topology's routing algorithm and may fall back
// to reserved escape channels routed over a provably acyclic subnetwork (the
// Space-0 ring with a dateline VC split for String Figure; dimension-order
// for meshes and butterflies). The paper's two-VC coordinate-direction
// scheme is preserved as the adaptive-VC assignment policy; used alone it
// deadlocks under greedy MD routing, which is why the escape subnetwork
// exists.
//
// The simulator is topology-agnostic: it consumes an out-adjacency, a
// routing.Algorithm for next-hop candidates, a virtual-channel policy, an
// escape routing function, and a per-link latency function, so String
// Figure and every baseline run on the same machinery. New reads each
// link's latency once into a per-link array, beside the wake deadline power
// gating sets (Sim.SetLinkWake): a flit sent at cycle c arrives at
// base + max(c, wake), so every link delivers in send order.
//
// Two cores advance that machinery, chosen once per cycle in step: the
// event-driven core (netsim.go, events.go) carries in-flight flits in one
// FIFO lane per distinct base latency, plus a far heap for flits sent onto
// a waking link, and follows two router worklists (routers with work, and
// routers whose source queue holds flits) and per-router bitmasks (units
// needing a route, candidates per output, parked outputs). A worklist
// changes only when a router gains work from none or runs out of it, and
// keeps its member count and a summary of its non-empty words, so walking
// and counting it costs O(busy words) per cycle and nothing per flit. The
// reference core (reference.go, Config.ReferenceCore) keeps a delay line
// per link, scans everything and is the oracle the cross-core determinism
// suites byte-diff against. They share every other state transition and
// own only their scans and link queues (see ARCHITECTURE.md, "Hot loop").
//
// New carves every per-router table from a few large arenas. Sim.Release
// returns them to a bounded process-wide free list, from which the next New
// over a network of the same shape takes them back, cleared; the session
// layer releases each simulator once its Results are copied, so sessions on
// one network stop paying for its size. A simulator that is never released
// is garbage-collected as usual.
//
// A freed buffer slot credits its upstream output VC through an index the
// input unit keeps into one array of every router's output-VC records, so
// a credit return reads no upstream router.
//
// The per-flit state holds no pointer: a flit is 8 bytes naming its packet
// by handle in the Sim's packet slabs, and each input unit carries a fixed
// inline ring of bufFlits flits, which credit-based flow control makes
// exact (a push onto a full unit panics). Sim.Stats reports the engine's
// own work (EngineStats), off every Result. See ARCHITECTURE.md, "Data
// layout".
//
// The event core takes every table-deterministic routing decision from a
// RouteCache, one entry per (router, destination) pair, shared by the
// simulators of one network. A miss is resolved for its pair until its
// destination has missed often enough to pay for a whole column, which a
// greediest router then fills from one MD column (Sim.fillColumn,
// routing.Greediest.FirstHopColumn); see ARCHITECTURE.md, "Route cache".
//
// The interval probe (Config.SnapshotEvery, Config.OnSnapshot) emits
// Snapshot, the repository's one telemetry record: the root package's
// TelemetrySnapshot and its parts are aliases, so the nanosecond units and
// JSON names of live telemetry are defined here and nowhere else.
package netsim
