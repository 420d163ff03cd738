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
// (Alg, Out) for as long as neither changes — its lifetime is a table
// epoch, not a session. Owners that mutate the tables Reset it while no
// simulator is running on it.
//
// Concurrent simulators may share one cache: an entry only ever moves from
// empty to its one possible value, so racing fills are idempotent and a
// reader sees either a miss (and computes the same value itself) or the
// value — simulation results cannot depend on who filled what, or when.
// Entries are one byte, zero = empty, packed four to an atomic word.
type RouteCache struct {
	n     int
	words []atomic.Uint32
}

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
	return &RouteCache{n: routers, words: make([]atomic.Uint32, (routers*routers+3)/4)}
}

// Reset empties the cache. The caller guarantees no simulator is using it.
func (c *RouteCache) Reset() {
	if c != nil {
		clear(c.words)
	}
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
