package design

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Names lists the evaluated designs in Figure 8 order.
var Names = []string{"dm", "odm", "fb", "afb", "s2", "sf"}

// ErrUnknownKind reports a design name outside Names.
var ErrUnknownKind = errors.New("design: unknown design kind")

// Design is one evaluated network design: a deterministic topology build
// with everything a simulation session needs to treat it like any other.
type Design struct {
	// Spec is the design's identity: the build input in normal form (Kind
	// named, the sf/s2 port count resolved). Build(d.Spec) reproduces the
	// design, so the Spec is all that needs to be stored or sent.
	Spec Spec
	N    int // memory nodes
	// Routers is the network router count (differs from N for the
	// concentrated FB/AFB designs, which host several memory nodes per
	// router).
	Routers int
	Ports   int
	// PortBudget is the maximum number of physical connections any single
	// router may use: the Section IV wiring bounds for the String Figure
	// family (p+4 bidirectional with shortcuts, p/2+2 uni-directional), the
	// plain port count elsewhere. Every router's out-degree stays within it.
	PortBudget int
	// Out is the router-level out-adjacency at full scale.
	Out   [][]int
	Graph *graph.Graph
	// Alg supplies candidate next hops at router granularity. Nothing edits
	// it once built: on sf, reconfiguration routes a copy of it.
	Alg routing.Algorithm
	// NodeRouter maps a memory node to its hosting router.
	NodeRouter func(node int) int
	// RouterNodes[r] lists the memory nodes hosted by router r (the inverse
	// of NodeRouter; empty for routers that host no memory at small N).
	RouterNodes [][]int
	// NetCfg builds a simulator configuration with the design's routing,
	// VC and escape policies; a network copies it once per epoch, with a
	// reconfigured epoch's router, Out and EscapeRoute in place.
	NetCfg func(seed int64) netsim.Config
	// SF holds the String Figure topology for the SF/S2 designs (nil
	// otherwise), used by reconfiguration.
	SF *topology.StringFigure
	// Reconfigurable marks the designs that support elastic power gating
	// (the sf design only: S2 lacks reconfiguration support by definition —
	// down-scaling it requires regenerating the topology).
	Reconfigurable bool
}

// Spec selects and parameterizes a design build.
type Spec struct {
	// Kind is one of Names ("" means "sf").
	Kind string
	// N is the memory-node count.
	N int
	// Ports overrides the router port count for the sf/s2 designs (0 keeps
	// the paper's default for the scale). The mesh and butterfly designs
	// have fixed port layouts.
	Ports int
	// Seed drives topology randomness.
	Seed int64
	// Unidirectional selects the strict uni-directional wire variant of the
	// Section IV ablation (sf only).
	Unidirectional bool
	// NoShortcuts disables the pre-provisioned shortcut wires (sf only;
	// yields an S2-ideal style network without elastic down-scaling).
	NoShortcuts bool
}

// Normalize checks a build spec against the rules Build enforces and returns
// it in normal form (Kind named, the sf/s2 port count resolved). It builds
// no topology, so it is cheap at any scale.
func (spec Spec) Normalize() (Spec, error) {
	if spec.Kind == "" {
		spec.Kind = "sf"
	}
	if spec.Kind != "sf" && (spec.Unidirectional || spec.NoShortcuts) {
		return spec, fmt.Errorf("design: wire-variant options apply to the sf design only, not %q", spec.Kind)
	}
	switch spec.Kind {
	case "dm", "odm", "fb", "afb":
		if spec.Ports != 0 {
			return spec, fmt.Errorf("design: %s has a fixed port layout; Ports override unsupported", spec.Kind)
		}
	case "s2", "sf":
		if spec.Ports == 0 {
			spec.Ports = topology.PortsForN(spec.N)
		}
		if err := (topology.Config{N: spec.N, Ports: spec.Ports}).Validate(); err != nil {
			return spec, err
		}
	default:
		return spec, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownKind, spec.Kind, Names)
	}
	return spec, nil
}

// Build constructs the design selected by the spec. Equal specs build
// identical designs.
func Build(spec Spec) (*Design, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	d, err := buildKind(spec)
	if err != nil {
		return nil, err
	}
	d.Spec = spec
	return d, nil
}

// buildKind constructs the design a normalized spec selects.
func buildKind(spec Spec) (*Design, error) {
	switch spec.Kind {
	case "dm":
		return buildMesh(spec.N, 1)
	case "odm":
		width, err := ODMWidth(spec.N, spec.Seed)
		if err != nil {
			return nil, err
		}
		return buildMesh(spec.N, width)
	case "fb", "afb":
		return buildButterfly(spec.N, spec.Kind == "afb")
	default: // "sf" or "s2", the only other kinds Normalize admits
		return buildSF(spec)
	}
}

// identity is the node→router map for non-concentrated designs.
func identity(v int) int { return v }

// routerNodes inverts a node→router map.
func routerNodes(n, routers int, nodeRouter func(int) int) [][]int {
	hosted := make([][]int, routers)
	for v := 0; v < n; v++ {
		r := nodeRouter(v)
		hosted[r] = append(hosted[r], v)
	}
	return hosted
}

// buildSF builds the String Figure design, or the S2 baseline: the same
// balanced random topology without shortcuts or reconfiguration.
func buildSF(spec Spec) (*Design, error) {
	sf, err := topology.NewStringFigure(topology.Config{
		N:             spec.N,
		Ports:         spec.Ports,
		Seed:          spec.Seed,
		Bidirectional: !spec.Unidirectional,
		Shortcuts:     spec.Kind == "sf" && !spec.NoShortcuts,
	})
	if err != nil {
		return nil, err
	}
	g := sf.Graph()
	// One router, adjacency and escape function per design, shared by every
	// session's configuration (nothing edits the router after the build).
	out := sf.OutNeighbors()
	alg := routing.NewGreediestOver(sf, 0, out)
	escape := netsim.RingEscape(sf, nil)
	d := &Design{
		N:          sf.Cfg.N,
		Routers:    sf.Cfg.N,
		Ports:      sf.Cfg.Ports,
		PortBudget: sfPortBudget(sf),
		Out:        out,
		Graph:      g,
		Alg:        alg,
		NodeRouter: identity,
		NetCfg: func(simSeed int64) netsim.Config {
			cfg := netsim.SFPolicy(alg, simSeed)
			cfg.Out = out
			cfg.EscapeRoute = escape
			return cfg
		},
		SF:             sf,
		Reconfigurable: spec.Kind == "sf",
	}
	d.RouterNodes = routerNodes(d.N, d.Routers, d.NodeRouter)
	return d, nil
}

// sfPortBudget is the Section IV per-node wiring bound: bidirectional wires
// count at both endpoints (degree p), uni-directional at one (p/2), and a
// node can source up to two shortcuts and be the target of two more.
func sfPortBudget(sf *topology.StringFigure) int {
	budget := sf.Cfg.Ports
	if !sf.Cfg.Bidirectional {
		budget = sf.Cfg.Ports / 2
	}
	if sf.Cfg.Shortcuts {
		if sf.Cfg.Bidirectional {
			budget += 4
		} else {
			budget += 2
		}
	}
	return budget
}

func buildMesh(n, width int) (*Design, error) {
	m, err := topology.NewODM(n, width)
	if err != nil {
		return nil, err
	}
	g := m.Graph()
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		out[v] = g.UniqueOutNeighbors(v)
	}
	alg := &routing.MeshRouter{Mesh: m}
	d := &Design{
		N:          n,
		Routers:    n,
		Ports:      m.Ports(),
		PortBudget: m.Ports(),
		Out:        out,
		Graph:      g,
		Alg:        alg,
		NodeRouter: identity,
		NetCfg: func(simSeed int64) netsim.Config {
			return netsim.Config{
				Out:       out,
				Alg:       alg,
				EscapeVCs: 1,     // XY first candidate is the escape route
				LinkWidth: width, // ODM widened channels (1 for DM)
				Adaptive:  netsim.AdaptiveEveryHop,
				Seed:      simSeed,
			}
		},
	}
	d.RouterNodes = routerNodes(d.N, d.Routers, d.NodeRouter)
	return d, nil
}

func buildButterfly(n int, partitioned bool) (*Design, error) {
	var b *topology.Butterfly
	var err error
	if partitioned {
		b, err = topology.NewAdaptedFlattenedButterfly(n)
	} else {
		b, err = topology.NewFlattenedButterfly(n)
	}
	if err != nil {
		return nil, err
	}
	g := b.Graph()
	out := make([][]int, b.Routers())
	for v := 0; v < b.Routers(); v++ {
		out[v] = g.UniqueOutNeighbors(v)
	}
	ports := g.MaxOutDegree() // Butterfly.Ports, on the graph at hand
	alg := &routing.ButterflyRouter{B: b}
	d := &Design{
		N:          n,
		Routers:    b.Routers(),
		Ports:      ports,
		PortBudget: ports,
		Out:        out,
		Graph:      g,
		Alg:        alg,
		NodeRouter: b.NodeRouter,
		NetCfg: func(simSeed int64) netsim.Config {
			return netsim.Config{
				Out:       out,
				Alg:       alg,
				EscapeVCs: 1, // dimension-ordered first candidate escapes
				Adaptive:  netsim.AdaptiveEveryHop,
				Seed:      simSeed,
			}
		},
	}
	d.RouterNodes = routerNodes(d.N, d.Routers, d.NodeRouter)
	return d, nil
}

// maxODMWidth is the widest channel ODMWidth chooses.
const maxODMWidth = 8

// ODMWidth computes the channel-width multiplier that matches the mesh's
// bisection bandwidth to String Figure's at the same scale (Section V's
// "optimized DM"). The SF bandwidth uses the paper's random-cut max-flow
// methodology (appropriate for random topologies, where every balanced cut
// is near-minimal); the mesh uses its geometric bisection (the true minimum
// cut of a grid — random cuts would overestimate it wildly).
//
// Each cut's flow stops at maxODMWidth times the mesh's bandwidth. That is
// exact: a stopped cut can only decide the minimum when every cut reaches
// the cap, and then the width is maxODMWidth either way; a cut below the
// cap is computed in full.
func ODMWidth(n int, seed int64) (int, error) {
	sf, err := topology.NewPaperSF(n, seed)
	if err != nil {
		return 0, err
	}
	m, err := topology.NewMesh(n)
	if err != nil {
		return 0, err
	}
	meshBW := MeshGeometricBisection(m)
	if meshBW <= 0 {
		return 1, nil
	}
	cuts := 5
	rng := rand.New(rand.NewSource(seed))
	sfBW := sf.Graph().BisectionBandwidth(cuts, rng, maxODMWidth*meshBW)
	return min(max(int(math.Round(sfBW/meshBW)), 1), maxODMWidth), nil
}

// MeshGeometricBisection returns the directed flow across the mesh's middle
// column cut: Rows links per direction times the channel width.
func MeshGeometricBisection(m *topology.Mesh) float64 {
	g := m.Graph()
	var left, right []int
	for v := 0; v < m.N; v++ {
		_, c := m.Loc(v)
		if c < m.Cols/2 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return g.PartitionFlow(left, right)
}

// PaperScales are the network sizes of Figure 8. Designs that do not
// support a scale (FB/AFB below 128) are skipped by the experiments.
var PaperScales = []int{16, 17, 32, 61, 64, 113, 128, 256, 512, 1024, 1296}

// Supports reports whether a design is evaluated at scale n in Figure 8.
// (FB/AFB still *build* below 128 nodes — their router grid just dwarfs the
// memory population — so small-scale tests can exercise them.)
func Supports(kind string, n int) bool {
	switch kind {
	case "fb", "afb":
		return n >= 128
	default:
		return true
	}
}
