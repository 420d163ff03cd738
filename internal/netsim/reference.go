package netsim

// The reference core: the seed-equivalent full scan the cross-core
// determinism suite byte-diffs the event-driven core against (see
// Config.ReferenceCore). It keeps no calendar, worklist or cache of its own
// — every router, link and input unit is visited every cycle — and changes
// state only through the transitions the event core uses too (deliverFlit,
// inject, drainSourceQueue, routeUnit, forward).

// stepRef is one reference-core cycle: deliver, inject, drain every source
// queue, then route and arbitrate every router in ascending order.
func (s *Sim) stepRef() {
	s.deliverLinkFlitsRef()
	s.inject()
	for _, r := range s.routers {
		s.drainSourceQueue(r)
	}
	vcs := s.vcs
	for _, r := range s.routers {
		if r.queued == 0 {
			continue
		}
		nUnits := len(r.in)
		eject := len(r.outNbr) // virtual ejection port index
		for i := range r.in {
			if r.in[i].n > 0 {
				s.routeUnit(r, i, eject)
			}
		}
		for out := 0; out <= eject; out++ {
			for slot := 0; slot < s.cfg.LinkWidth; slot++ {
				granted := s.scanSlotRef(r, out, nUnits, eject, vcs)
				if granted < 0 {
					break // no grant at this slot: later ones cannot grant either
				}
				s.forward(r, out, granted, nUnits, eject, vcs)
			}
		}
	}
}

// deliverLinkFlitsRef is the full-scan delivery pass: the arrived prefix of
// every link's delay line moves into the downstream input buffer.
func (s *Sim) deliverLinkFlitsRef() {
	for _, r := range s.routers {
		for p := range r.links {
			q := &r.links[p]
			for q.Len() > 0 && q.front().arrive <= s.cycle {
				s.deliverFlit(r, p, q.popFront().f)
				s.lastMove = s.cycle
			}
		}
	}
}

// scanSlotRef is the full grant scan: walk every input unit in round-robin
// order from rr[out], note blocked routed heads, and return the first
// grantable unit (the seed's exact loop), or -1.
func (s *Sim) scanSlotRef(r *router, out, nUnits, eject, vcs int) int {
	for k := 0; k < nUnits; k++ {
		i := (r.rr[out] + k) % nUnits
		iu := &r.in[i]
		if iu.n == 0 || int(iu.route) != out {
			continue
		}
		o := &r.ovcs[out*vcs+int(iu.outVC)]
		if o.owner >= 0 && int(o.owner) != i {
			s.noteBlocked(r, iu, i)
			continue // another packet holds this output VC
		}
		if out < eject && o.cred <= 0 {
			s.noteBlocked(r, iu, i)
			continue // no downstream space
		}
		return i
	}
	return -1
}

// countInFlight recounts network occupancy (source queues, input units,
// links) by walking every queue — the cross-check of the event core's
// incremental flitsIn counter through Results and Snapshot occupancy.
func (s *Sim) countInFlight() int {
	total := 0
	for _, r := range s.routers {
		total += r.srcQ.Len()
		for i := range r.in {
			total += r.in[i].Len()
		}
		for p := range r.links {
			total += r.links[p].Len()
		}
	}
	return total
}
