package stringfigure

import "errors"

// Sentinel errors returned by the public API. Callers match them with
// errors.Is; every error carries additional context via wrapping.
var (
	// ErrNodeDead reports an operation addressed at a powered-off node:
	// routing to or from a gated node, or running a trace-driven workload
	// with fewer than two alive nodes.
	ErrNodeDead = errors.New("stringfigure: node is powered off")

	// ErrUnknownPattern reports a synthetic traffic pattern or Table IV
	// workload name outside the supported set.
	ErrUnknownPattern = errors.New("stringfigure: unknown pattern or workload")

	// ErrNotRoutable reports that no route exists between two alive nodes —
	// only possible on a corrupted routing table; an intact or healed
	// String Figure network routes every alive pair (Lemma 1).
	ErrNotRoutable = errors.New("stringfigure: no route between nodes")

	// ErrOutOfRange reports a node or space index outside the network.
	ErrOutOfRange = errors.New("stringfigure: index out of range")

	// ErrUnknownDesign reports a design name outside Designs().
	ErrUnknownDesign = errors.New("stringfigure: unknown design")

	// ErrNotReconfigurable reports an elastic-scaling operation (GateOff,
	// GateOn, SetMounted) on a design without reconfiguration support —
	// only the String Figure family carries the shortcut wires and routing
	// tables that make power gating safe.
	ErrNotReconfigurable = errors.New("stringfigure: design does not support reconfiguration")

	// ErrScenario reports an invalid scenario schedule: an unknown
	// ScenarioSpec kind, parameters outside their documented ranges, an
	// illegal combination (two rate-modulating specs, a regeneration
	// combined with anything else), or a scenario on a design or workload
	// that cannot execute it (regen-s2 anywhere but s2, rate modulation on
	// a closed-loop trace run).
	ErrScenario = errors.New("stringfigure: invalid scenario")

	// ErrWorkerLost reports a distributed sweep point abandoned after
	// repeated worker losses: the point was requeued onto surviving
	// workers each time its worker disconnected, and exhausted its
	// dispatch budget. It appears in the point's Result.Err; the rest of
	// the sweep is unaffected.
	ErrWorkerLost = errors.New("stringfigure: distributed worker lost")

	// ErrClusterClosed reports an operation against a closed Cluster:
	// waiting for workers after Close, or sweep points orphaned when the
	// cluster shut down mid-run.
	ErrClusterClosed = errors.New("stringfigure: cluster closed")
)
