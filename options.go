package stringfigure

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/design"
	"repro/internal/reconfig"
	"repro/internal/routing"
)

// options is the value New's functional options fill in: the design's
// build parameters and the cluster to attach.
type options struct {
	spec    design.Spec
	cluster *Cluster
}

// Option configures New.
type Option func(*options)

// WithDesign selects the topology design: "sf" (the default), the "s2"
// random baseline, the "dm"/"odm" meshes or the "fb"/"afb" flattened
// butterflies — the six designs of the paper's headline comparisons. Every
// design runs through the same Session/Sweep machinery; only the String
// Figure family supports reconfiguration (GateOff/GateOn/SetMounted).
func WithDesign(name string) Option { return func(o *options) { o.spec.Kind = name } }

// WithNodes sets the number of memory nodes (required; any value >= 2 — the
// paper evaluates up to 1296).
func WithNodes(n int) Option { return func(o *options) { o.spec.N = n } }

// WithPorts overrides the router port count for the sf/s2 designs (0 keeps
// the paper's default for the scale: 4 up to 128 nodes, 8 beyond). The mesh
// and butterfly designs have fixed port layouts.
func WithPorts(p int) Option { return func(o *options) { o.spec.Ports = p } }

// WithSeed sets the topology seed; equal seeds reproduce identical networks.
func WithSeed(s int64) Option { return func(o *options) { o.spec.Seed = s } }

// Unidirectional selects the strict uni-directional wire variant (the
// Section IV ablation: one wire per port half, clockwise-distance routing;
// sf design only). The default is the bidirectional S2-style construction
// the paper's performance results correspond to.
func Unidirectional() Option { return func(o *options) { o.spec.Unidirectional = true } }

// NoShortcuts disables the pre-provisioned shortcut wires (S2-ideal style,
// no elastic down-scaling support; sf design only).
func NoShortcuts() Option { return func(o *options) { o.spec.NoShortcuts = true } }

// WithCluster attaches a distributed-execution cluster (NewCluster) to
// the network: its Sweep and Saturation calls shard points over the
// cluster's workers. Points no worker can take — every point while none is
// connected, the unfinished rest after the last one is lost — run on the
// sweep's in-process pool. Many networks may share one cluster.
func WithCluster(c *Cluster) Option { return func(o *options) { o.cluster = c } }

// Designs lists the supported design names in Figure 8 order.
func Designs() []string { return append([]string(nil), design.Names...) }

// New builds the selected design and deploys it at full scale:
//
//	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(7))
//	fb, err := stringfigure.New(stringfigure.WithDesign("fb"), stringfigure.WithNodes(128))
func New(opts ...Option) (*Network, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o.build()
}

// check validates the build spec without building anything: New's rules,
// cheap at any scale, so a job service can apply them at submission.
func (o options) check() error {
	if o.spec.N == 0 {
		return fmt.Errorf("stringfigure: node count required (use WithNodes)")
	}
	_, err := o.spec.Normalize()
	if errors.Is(err, design.ErrUnknownKind) {
		return fmt.Errorf("%w: %q (want one of %v)", ErrUnknownDesign, o.spec.Kind, design.Names)
	}
	return err
}

// build deploys the network the options describe.
func (o options) build() (*Network, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	d, err := design.Build(o.spec)
	if err != nil {
		return nil, err
	}
	var engine *reconfig.Network
	if d.Reconfigurable {
		engine = reconfig.Adopt(d.SF, d.Out, d.Alg.(*routing.Greediest))
	}
	net := &Network{d: d, cluster: o.cluster}
	net.cur.Store(newEpoch(d, engine))
	return net, nil
}

// netStore is the process's one store of built networks. ServeWorker's
// jobs, Service jobs and the S2 regeneration's phase B take their networks
// from it, so callers with one key share one build — one table set, one
// route cache — while New keeps returning networks the caller owns.
var netStore struct {
	mu   sync.Mutex
	nets map[netKey]func() (*Network, error)
}

// cacheCap bounds the stored networks; a process cycling through more
// keys than this (a Figure 8 scale sweep on a cluster builds one network
// per design x scale) evicts everything and rebuilds on demand.
const cacheCap = 8

// sharedNetwork returns the network s builds with cluster c attached,
// building it at most once while it stays stored: the first jobs of a
// sweep all miss at once and must share one Network rather than each run
// on a private build. A failed build stays stored too: builds are pure, so
// it would fail the same way again. Nothing reconfigures a stored network:
// jobs only run sessions on it, and a gated session reconfigures a private
// copy of its engine, so every job with one key — gated or not — runs on
// the one epoch the store built and shares its route cache.
func sharedNetwork(s networkSpec, c *Cluster) (*Network, error) {
	key := s.key(c)
	netStore.mu.Lock()
	get := netStore.nets[key]
	if get == nil {
		if netStore.nets == nil || len(netStore.nets) >= cacheCap {
			netStore.nets = make(map[netKey]func() (*Network, error))
		}
		get = sync.OnceValues(func() (*Network, error) { return s.build(c) })
		netStore.nets[key] = get
	}
	netStore.mu.Unlock()
	return get()
}
