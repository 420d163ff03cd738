// Package scenario compiles declarative reconfiguration scenarios —
// churn traces, correlated failure storms, diurnal and bursty
// arrival-rate modulation, and an S2 regeneration baseline — into
// deterministic per-cycle event streams for the session layer to
// execute.
//
// Compilation is a pure function of (specs, env): the same inputs
// always yield byte-identical schedules, every random choice draws from
// a seeded source, and the emitted gate stream already satisfies the
// paper's Section VI epoch rules (same-cycle events form one
// reconfiguration epoch, consecutive epochs sit at least the minimum
// reconfiguration interval apart, gate-ons are deferred past their
// links' wake latency) as well as mask validity (events never target a
// node already in the requested state, never drop the network below two
// alive nodes, and never address a node outside the network). The
// session layer can therefore execute a compiled schedule without
// re-validating it.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Scenario kinds, the Spec.Kind vocabulary.
const (
	// KindChurnTrace replays an explicit list of gate events (Spec.Gates).
	KindChurnTrace = "churn-trace"
	// KindChurn generates continuous bounded hotplug churn: every Every
	// cycles a seeded-random alive node is gated off until MaxDown nodes
	// are down, then the oldest-down node is gated back on.
	KindChurn = "churn"
	// KindStorm generates one correlated failure storm: every alive node
	// within circular id-distance Radius of a (possibly seeded-random)
	// Center gates off at Start, and back on Recover cycles later.
	KindStorm = "storm"
	// KindDiurnal modulates the synthetic arrival rate along a sine wave
	// of the given Period and Depth, sampled as piecewise-constant steps.
	KindDiurnal = "diurnal"
	// KindBurst modulates the synthetic arrival rate with seeded-random
	// bursts: roughly every Every cycles the rate scales by Factor for
	// Length cycles.
	KindBurst = "burst"
	// KindRegenS2 is the S2 down-scaling baseline: at Start the topology
	// is regenerated at Drop fewer nodes (S2 lacks reconfiguration
	// support, so scaling it down means rebuilding), with injection
	// silenced for the Outage cycles the rebuild costs.
	KindRegenS2 = "regen-s2"
)

// GateEvent gates one node off or back on at an absolute network cycle
// (the root package's GateEvent is an alias of this type and carries the
// timing contract).
type GateEvent struct {
	Cycle int64 `json:"cycle"`
	Node  int   `json:"node"`
	On    bool  `json:"on"` // false gates the node off, true powers it back on
}

// RateEvent rescales the synthetic injection rate at an absolute network
// cycle: the session multiplies its configured base rate by Scale.
type RateEvent struct {
	Cycle int64
	Scale float64
}

// Regen is a compiled S2 regeneration: at Cycle the session rebuilds the
// topology with Drop fewer nodes and keeps injection off for Outage
// cycles.
type Regen struct {
	Cycle  int64
	Drop   int
	Outage int64
}

// Event is one scenario action a session applied, as stamped into a
// telemetry snapshot (the root package's ScenarioEvent is an alias of this
// type): Kind is EventGateOff or EventGateOn (Node set), EventRate (Rate
// set to the new effective injection rate), or EventRegen (Node set to the
// regenerated topology's node count). Cycle is the absolute network cycle
// the action applied at.
type Event struct {
	Cycle int64   `json:"cycle"`
	Kind  string  `json:"kind"`
	Node  int     `json:"node,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
}

// Event kinds, the Event.Kind vocabulary.
const (
	// EventGateOff records a node gated off.
	EventGateOff = "gate-off"
	// EventGateOn records a node powered back on.
	EventGateOn = "gate-on"
	// EventRate records an injection-rate change.
	EventRate = "rate"
	// EventRegen records an S2 topology regeneration.
	EventRegen = "regen"
)

// Spec is one declarative scenario — the root package's ScenarioSpec is an
// alias of this type, and its constructors (ChurnTrace, Churn, FailureStorm,
// DiurnalRate, BurstyRate, RegenerateS2) fill the relevant fields. Kind
// selects the generator; each kind reads its own field subset (see the Kind
// constants). The struct serializes to snake_case JSON (the jobsvc JobSpec
// form) and rides the distributed sweep wire unchanged.
type Spec struct {
	// Kind selects the scenario generator (the Kind* constants).
	Kind string `json:"kind"`
	// Seed drives the spec's own randomness; 0 derives a deterministic
	// seed from the environment's base seed and the spec's position.
	Seed int64 `json:"seed,omitempty"`

	// Start and Stop bound the active window in absolute network cycles
	// (Stop <= 0 means the end of the run).
	Start int64 `json:"start,omitempty"`
	Stop  int64 `json:"stop,omitempty"`

	// Gates is the explicit gate trace (KindChurnTrace).
	Gates []GateEvent `json:"gates,omitempty"`

	// Every is the churn tick (KindChurn) or the mean burst gap
	// (KindBurst), in cycles.
	Every int64 `json:"every,omitempty"`
	// MaxDown bounds concurrently gated-off nodes (KindChurn, default 1).
	MaxDown int `json:"max_down,omitempty"`

	// Center and Radius select the storm region (KindStorm): alive nodes
	// within circular id-distance Radius of Center. A negative Center
	// draws a seeded-random center.
	Center int `json:"center,omitempty"`
	Radius int `json:"radius,omitempty"`
	// Recover schedules the storm's gate-ons Recover cycles after Start
	// (0 leaves the region down for the rest of the run).
	Recover int64 `json:"recover,omitempty"`

	// Period and Depth shape the diurnal sine (KindDiurnal): the rate
	// scale swings in [1-Depth, 1+Depth] over Period cycles.
	Period int64   `json:"period,omitempty"`
	Depth  float64 `json:"depth,omitempty"`

	// Factor and Length shape bursts (KindBurst): the rate scales by
	// Factor for Length cycles per burst.
	Factor float64 `json:"factor,omitempty"`
	Length int64   `json:"length,omitempty"`

	// Drop and Outage parameterize the S2 regeneration (KindRegenS2):
	// rebuild the topology at Drop fewer nodes at Start, with injection
	// silenced for Outage cycles (0 defaults to the minimum
	// reconfiguration interval).
	Drop   int   `json:"drop,omitempty"`
	Outage int64 `json:"outage,omitempty"`
}

// Env is the compilation environment: the network and run the schedule
// will execute against.
type Env struct {
	// Nodes is the network's node count; Alive its starting mask (nil
	// means every node is on).
	Nodes int
	Alive []bool
	// Total is the run length in cycles (events at or past it never fire).
	Total int64
	// Wake and MinInterval are the Section VI timing constants in cycles:
	// the link wake latency deferring gate-ons, and the minimum spacing
	// between reconfiguration epochs.
	Wake, MinInterval int64
	// Seed is the base seed specs with Seed 0 derive theirs from.
	Seed int64
}

// Schedule is a compiled scenario: sorted, epoch-legal, mask-valid gate
// events; sorted strictly-increasing rate events; and at most one
// regeneration. A Schedule with only rate events runs on any design;
// gate events need a reconfigurable one.
type Schedule struct {
	Gates []GateEvent
	Rates []RateEvent
	Regen *Regen
	// Wake is the link wake latency in cycles (Env.Wake) the gate-ons
	// were deferred by; a gate-off charges it to the links it switches on.
	Wake int64
}

// Normalize applies the Section VI epoch rules to a raw gate-event list:
// gate-ons shift one link wake latency later (a returning node rejoins
// the tables only once its links are awake), events sort stably by
// cycle, same-scheduled-cycle events fuse into one reconfiguration
// epoch, epochs closer than minInterval to their predecessor defer to
// the earliest legal cycle preserving order, and events landing at or
// past total are dropped. Generated scenarios and hand-written churn
// traces share this one set of rules.
func Normalize(raw []GateEvent, wake, minInterval, total int64) []GateEvent {
	events := make([]GateEvent, 0, len(raw))
	for _, ev := range raw {
		if ev.On {
			ev.Cycle += wake
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })

	if len(events) > 0 {
		// Epoch membership is decided on the cycles as scheduled (after the
		// gate-on wake shift), before any deferral: events that asked for
		// one cycle stay together, riding their epoch's deferral as one.
		prevOrig := events[0].Cycle
		for i := 1; i < len(events); i++ {
			orig := events[i].Cycle
			switch {
			case orig == prevOrig:
				events[i].Cycle = events[i-1].Cycle
			case orig < events[i-1].Cycle+minInterval:
				events[i].Cycle = events[i-1].Cycle + minInterval
			}
			prevOrig = orig
		}
	}
	kept := events[:0]
	for _, ev := range events {
		if ev.Cycle < total { // events past the run never fire
			kept = append(kept, ev)
		}
	}
	return kept
}

// Compile turns declarative specs into one executable schedule. Any
// number of gate-producing specs (churn trace, churn, storm) merge into
// one normalized gate stream; at most one rate-modulating spec (diurnal,
// burst) and at most one regeneration are allowed, and a regeneration
// combines with nothing else (it swaps the topology out from under any
// other scenario). Compile is pure: equal (specs, env) yield
// byte-identical schedules.
func Compile(specs []Spec, env Env) (Schedule, error) {
	var sch Schedule
	if env.Nodes < 2 || env.Total <= 0 {
		return sch, fmt.Errorf("scenario: need >= 2 nodes and a positive run length (have %d nodes, %d cycles)",
			env.Nodes, env.Total)
	}
	start := make([]bool, env.Nodes)
	for i := range start {
		start[i] = env.Alive == nil || env.Alive[i]
	}

	var raw []GateEvent
	var rateSpecs, regenSpecs int
	for i, sp := range specs {
		seed := sp.Seed
		if seed == 0 {
			seed = env.Seed + int64(i+1)*1_000_003
		}
		switch sp.Kind {
		case KindChurnTrace:
			for _, ev := range sp.Gates {
				if ev.Cycle < 0 || ev.Node < 0 || ev.Node >= env.Nodes {
					return sch, fmt.Errorf("scenario: churn-trace event %+v out of range (N=%d)", ev, env.Nodes)
				}
			}
			raw = append(raw, sp.Gates...)
		case KindChurn:
			evs, err := genChurn(sp, env, start, seed)
			if err != nil {
				return sch, err
			}
			raw = append(raw, evs...)
		case KindStorm:
			evs, err := genStorm(sp, env, start, seed)
			if err != nil {
				return sch, err
			}
			raw = append(raw, evs...)
		case KindDiurnal:
			rateSpecs++
			evs, err := genDiurnal(sp, env)
			if err != nil {
				return sch, err
			}
			sch.Rates = evs
		case KindBurst:
			rateSpecs++
			evs, err := genBurst(sp, env, seed)
			if err != nil {
				return sch, err
			}
			sch.Rates = evs
		case KindRegenS2:
			regenSpecs++
			rg, err := genRegen(sp, env)
			if err != nil {
				return sch, err
			}
			sch.Regen = rg
		default:
			return sch, fmt.Errorf("scenario: unknown kind %q", sp.Kind)
		}
	}
	if rateSpecs > 1 {
		return sch, fmt.Errorf("scenario: at most one rate-modulating spec (have %d)", rateSpecs)
	}
	if regenSpecs > 1 {
		return sch, fmt.Errorf("scenario: at most one regeneration spec (have %d)", regenSpecs)
	}
	if sch.Regen != nil && (len(raw) > 0 || len(sch.Rates) > 0) {
		return sch, fmt.Errorf("scenario: a regeneration combines with no other scenario")
	}
	sch.Gates = filterValid(Normalize(raw, env.Wake, env.MinInterval, env.Total), start)
	sch.Wake = env.Wake
	return sch, nil
}

// filterValid walks the evolving alive mask and drops events the session
// layer would reject: no-op transitions (the node is already in the
// requested state — e.g. a churn gate-on whose wake shift slid it past a
// re-gate-off of the same node) and gate-offs that would leave fewer
// than two alive nodes. Filtering after normalization only widens epoch
// gaps, so the spacing guarantee survives.
func filterValid(events []GateEvent, start []bool) []GateEvent {
	cur := append([]bool(nil), start...)
	alive := 0
	for _, a := range cur {
		if a {
			alive++
		}
	}
	kept := events[:0]
	for _, ev := range events {
		if cur[ev.Node] == ev.On {
			continue
		}
		if !ev.On && alive <= 2 {
			continue
		}
		cur[ev.Node] = ev.On
		if ev.On {
			alive++
		} else {
			alive--
		}
		kept = append(kept, ev)
	}
	return kept
}

// window resolves a spec's [Start, Stop) active window against the run.
func window(sp Spec, env Env) (int64, int64) {
	start := sp.Start
	if start < 0 {
		start = 0
	}
	stop := sp.Stop
	if stop <= 0 || stop > env.Total {
		stop = env.Total
	}
	return start, stop
}

// genChurn emits the rate-driven churn trace: one transition per tick,
// gating a seeded-random alive node off while fewer than MaxDown are
// down, otherwise reviving the oldest-down node.
func genChurn(sp Spec, env Env, startMask []bool, seed int64) ([]GateEvent, error) {
	if sp.Every <= 0 {
		return nil, fmt.Errorf("scenario: churn needs Every > 0 (have %d)", sp.Every)
	}
	maxDown := sp.MaxDown
	if maxDown <= 0 {
		maxDown = 1
	}
	rng := rand.New(rand.NewSource(seed))
	start, stop := window(sp, env)
	mask := append([]bool(nil), startMask...)
	alive := 0
	for _, a := range mask {
		if a {
			alive++
		}
	}
	var events []GateEvent
	var down []int
	for c := start; c < stop; c += sp.Every {
		if len(down) < maxDown && alive > 2 {
			// Gate off the k-th alive node, k seeded-random.
			k := rng.Intn(alive)
			node := -1
			for v, a := range mask {
				if !a {
					continue
				}
				if k == 0 {
					node = v
					break
				}
				k--
			}
			events = append(events, GateEvent{Cycle: c, Node: node, On: false})
			mask[node] = false
			alive--
			down = append(down, node)
		} else if len(down) > 0 {
			node := down[0]
			down = down[1:]
			events = append(events, GateEvent{Cycle: c, Node: node, On: true})
			mask[node] = true
			alive++
		}
	}
	return events, nil
}

// genStorm emits one correlated failure storm: the region within
// circular id-distance Radius of the center gates off at Start and (when
// Recover > 0) back on Recover cycles later, in ascending node order.
func genStorm(sp Spec, env Env, startMask []bool, seed int64) ([]GateEvent, error) {
	if sp.Radius < 0 {
		return nil, fmt.Errorf("scenario: storm needs Radius >= 0 (have %d)", sp.Radius)
	}
	center := sp.Center
	if center >= env.Nodes {
		return nil, fmt.Errorf("scenario: storm center %d out of range (N=%d)", center, env.Nodes)
	}
	if center < 0 {
		center = rand.New(rand.NewSource(seed)).Intn(env.Nodes)
	}
	start, stop := window(sp, env)
	var events []GateEvent
	for v := 0; v < env.Nodes; v++ {
		if !startMask[v] {
			continue
		}
		d := v - center
		if d < 0 {
			d = -d
		}
		if env.Nodes-d < d {
			d = env.Nodes - d
		}
		if d > sp.Radius {
			continue
		}
		events = append(events, GateEvent{Cycle: start, Node: v, On: false})
		if sp.Recover > 0 && start+sp.Recover < stop {
			events = append(events, GateEvent{Cycle: start + sp.Recover, Node: v, On: true})
		}
	}
	return events, nil
}

// diurnalSteps is the piecewise-constant sampling granularity of the
// diurnal sine: one rate step per 1/16th of the period.
const diurnalSteps = 16

// genDiurnal samples 1 + Depth*sin(2pi*(c-Start)/Period) as
// piecewise-constant rate steps across the active window.
func genDiurnal(sp Spec, env Env) ([]RateEvent, error) {
	if sp.Period <= 0 {
		return nil, fmt.Errorf("scenario: diurnal needs Period > 0 (have %d)", sp.Period)
	}
	if sp.Depth < 0 || sp.Depth >= 1 {
		return nil, fmt.Errorf("scenario: diurnal Depth must be in [0, 1) (have %g)", sp.Depth)
	}
	start, stop := window(sp, env)
	step := sp.Period / diurnalSteps
	if step < 1 {
		step = 1
	}
	var events []RateEvent
	for c := start; c < stop; c += step {
		scale := 1 + sp.Depth*math.Sin(2*math.Pi*float64(c-start)/float64(sp.Period))
		events = append(events, RateEvent{Cycle: c, Scale: scale})
	}
	if stop < env.Total && len(events) > 0 {
		events = append(events, RateEvent{Cycle: stop, Scale: 1})
	}
	return events, nil
}

// genBurst emits seeded-random bursts: gaps drawn uniform in
// [Every/2, 3*Every/2), each scaling the rate by Factor for Length
// cycles.
func genBurst(sp Spec, env Env, seed int64) ([]RateEvent, error) {
	if sp.Every <= 0 || sp.Length <= 0 {
		return nil, fmt.Errorf("scenario: burst needs Every > 0 and Length > 0 (have %d, %d)", sp.Every, sp.Length)
	}
	if sp.Factor <= 0 {
		return nil, fmt.Errorf("scenario: burst Factor must be positive (have %g)", sp.Factor)
	}
	rng := rand.New(rand.NewSource(seed))
	start, stop := window(sp, env)
	var events []RateEvent
	c := start
	for {
		gap := sp.Every/2 + rng.Int63n(sp.Every)
		if gap < 1 {
			gap = 1
		}
		c += gap
		if c >= stop {
			break
		}
		events = append(events, RateEvent{Cycle: c, Scale: sp.Factor})
		end := c + sp.Length
		if end >= stop {
			break
		}
		events = append(events, RateEvent{Cycle: end, Scale: 1})
		c = end
	}
	if stop < env.Total && len(events) > 0 && events[len(events)-1].Scale != 1 {
		events = append(events, RateEvent{Cycle: stop, Scale: 1})
	}
	return events, nil
}

// genRegen validates and compiles the S2 regeneration baseline.
func genRegen(sp Spec, env Env) (*Regen, error) {
	if sp.Drop < 1 || env.Nodes-sp.Drop < 2 {
		return nil, fmt.Errorf("scenario: regen-s2 must drop >= 1 nodes and keep >= 2 (drop %d of %d)",
			sp.Drop, env.Nodes)
	}
	start, _ := window(sp, env)
	if start >= env.Total {
		return nil, fmt.Errorf("scenario: regen-s2 Start %d is past the run (%d cycles)", start, env.Total)
	}
	outage := sp.Outage
	if outage <= 0 {
		outage = env.MinInterval
	}
	return &Regen{Cycle: start, Drop: sp.Drop, Outage: outage}, nil
}
