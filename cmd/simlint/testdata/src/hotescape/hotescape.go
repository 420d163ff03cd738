// Package hotescapefix is a simlint test fixture for hot-escape. The
// fixture test gates ring.push, sim.step, sim.schedule and sim.clean: each
// //want: line is a heap escape inside one of them, and the same escapes
// in unlisted functions — heap.push among them, which shares its bare name
// with the listed ring.push — must stay clean.
package hotescapefix

import "fmt"

type ring struct{ last any }

// push boxes its argument into an interface on every call.
func (r *ring) push(v int) {
	r.last = v //want:hot-escape
}

type heap struct{ last any }

// push is the same escape, but heap.push is not listed.
func (h *heap) push(v int) {
	h.last = v
}

type sim struct {
	hooks []func() int
	trace string
}

// step formats on the per-cycle path.
func (s *sim) step(cycle int) {
	s.trace = fmt.Sprint(cycle) //want:hot-escape
}

// schedule allocates through a closure; the closure's escape counts
// toward the function that declares it.
func (s *sim) schedule(n int) {
	s.hooks = append(s.hooks, func() int { return n }) //want:hot-escape
}

// clean is listed and allocation-free.
func (s *sim) clean(v int) int { return v + len(s.hooks) }

// newSim is a cold constructor: its escape is allowed.
func newSim() *sim { return &sim{} }
