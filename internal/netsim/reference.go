package netsim

// The reference core: the seed-equivalent full scan the cross-core
// determinism suite byte-diffs the event-driven core against (see
// Config.ReferenceCore). It keeps no lane, worklist or cache — every router,
// link and input unit is visited every cycle — and changes state only
// through the transitions the event core uses too (deliverFlit, inject,
// drainSourceQueue, routeUnit, forward), except that it carries flits over
// links on its own per-link delay lines (Sim.lines), an independent
// delivery implementation for the cross-core suite to diff the event core's
// lanes against.

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
				if f, onLink := s.forward(r, out, granted, nUnits, eject, vcs); onLink {
					s.sendRef(r, out, f)
				}
			}
		}
	}
}

// deliverLinkFlitsRef is the full-scan delivery pass: the arrived prefix of
// every link's delay line moves into the downstream input buffer.
func (s *Sim) deliverLinkFlitsRef() {
	for _, r := range s.routers {
		for p, w := range r.outNbr {
			q := &s.lines[int(r.linkBase)+p]
			for q.Len() > 0 && q.front().arrive <= s.cycle {
				f := q.popFront().f
				s.deliverFlit(s.routers[w], int(r.down[p].unit0)+int(f.vc), f)
				s.lastMove = s.cycle
			}
		}
	}
}

// sendRef puts a flit forwarded through r's output port out on its link's
// delay line, stamped with its arrival cycle base + max(cycle, wake).
func (s *Sim) sendRef(r *router, out int, f flit) {
	l := int(r.linkBase) + out
	k := &s.links[l]
	s.lines[l].push(inflight{f: f, arrive: int64(k.base) + max(s.cycle, k.wake)})
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
	}
	for l := range s.lines {
		total += s.lines[l].Len()
	}
	return total
}
