package netsim

import "sync/atomic"

// Route outcomes: what routeUnit does with a head flit at (cur, dst) when
// no dynamic state is consulted. Non-negative values are output ports.
const (
	rcEmpty   = -3 // outcome not yet computed
	rcNoPort  = -2 // candidates resolve to no usable port: drop
	rcNoRoute = -1 // no adaptive candidates: escape or drop
)

// RouteCache memoizes the table-deterministic routing outcome of every
// (current router, destination) pair: the output port the deterministic
// first candidate resolves to, or one of the no-route outcomes. The outcome
// is a pure function of the routing algorithm's tables and the
// out-adjacency, so one cache serves every simulator built over the same
// (Alg, Out) — its lifetime is a table epoch, not a session. Nothing
// empties a cache: an owner that changes the tables starts a new epoch with
// a new cache.
//
// Concurrent simulators may share one cache: an entry only ever moves from
// empty to its one possible value, so racing fills are idempotent and a
// reader sees either a miss (and computes the same value itself) or the
// value — simulation results cannot depend on who filled what, or when.
// Entries are one byte, zero = empty, packed four to an atomic word.
//
// Each destination also counts its misses. A miss is resolved for its own
// pair until its destination has missed N/colFillDiv times; that miss
// fills the destination's whole column instead (see Sim.fillColumn). The
// counts decide when work happens, never what an entry holds.
type RouteCache struct {
	n     int
	words []atomic.Uint32
	// misses[dst] counts this epoch's misses toward dst; the one that
	// reaches fillAt fills dst's column. fills counts column fills. Both
	// are test witnesses of the rule, read by nothing on the result path.
	misses []atomic.Uint32
	fillAt uint32
	fills  atomic.Int64
}

// colFillDiv sets the column-fill threshold at N/colFillDiv misses per
// destination: ski rental between renting (resolving one pair) and buying
// (the whole column). Measured at N=1024 on a 2-vCPU x86-64 VM (go1.24),
// a pair costs ≈1.24 µs (Greediest.CandidatesInto on random pairs) and a
// column ≈115–135 µs (FirstHopColumn on random destinations: N MDs plus a
// table-view scan per router). A column costs N routers' scans where a pair
// costs one router's, so it is worth ≈N/10 pair misses at every scale, and
// waiting for that many keeps every regime within about twice the cost of
// the better choice: a destination that stops missing early never pays for
// a column, and one that keeps missing stops paying per pair. On the same
// host, filling on the first miss made the first session on a fresh N=1024
// idle network ≈175 ms, against ≈65 ms renting forever and ≈45 ms under
// this rule.
const colFillDiv = 10

// rcBias maps an outcome to its stored byte: rcNoPort -> 1, rcNoRoute -> 2,
// port p -> p+3; 0 stays free for "empty".
const rcBias = -rcEmpty

// rcMaxPort is the largest output-port index the byte encoding holds.
const rcMaxPort = 255 - rcBias

// NewRouteCache returns an empty cache for a network of the given router
// count, or nil when the quadratic table would be too large (beyond ~16M
// pairs, 16 MiB); a simulator without a cache computes every decision from
// the tables.
func NewRouteCache(routers int) *RouteCache {
	if routers*routers > 1<<24 {
		return nil
	}
	return &RouteCache{
		n:      routers,
		words:  make([]atomic.Uint32, (routers*routers+3)/4),
		misses: make([]atomic.Uint32, routers),
		fillAt: uint32(max(1, routers/colFillDiv)),
	}
}

// Counts reports the epoch's misses (over all destinations) and column
// fills. They are test witnesses of the fill rule: no Result, telemetry
// field or wire message carries them.
func (c *RouteCache) Counts() (misses, fills int64) {
	for i := range c.misses {
		misses += int64(c.misses[i].Load())
	}
	return misses, c.fills.Load()
}

// get returns the cached outcome for (cur, dst), rcEmpty on a miss.
func (c *RouteCache) get(cur, dst int) int {
	i := cur*c.n + dst
	return int(uint8(c.words[i>>2].Load()>>(uint(i&3)*8))) - rcBias
}

// put records the outcome for (cur, dst). Every writer of an entry stores
// the same value, so an atomic OR into the zeroed byte is a complete fill.
func (c *RouteCache) put(cur, dst, outcome int) {
	i := cur*c.n + dst
	c.words[i>>2].Or(uint32(outcome+rcBias) << (uint(i&3) * 8))
}

// missed counts a miss toward dst and reports whether it is the one that
// should fill dst's column. Exactly one miss per destination and epoch
// reaches the threshold, however many simulators share the cache.
func (c *RouteCache) missed(dst int) bool {
	return c.misses[dst].Add(1) == c.fillAt
}
