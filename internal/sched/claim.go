package sched

// The claim policy. A ready task sits on its run's ready stack and
// nowhere else, so popping it under the pool mutex is the claim: no
// task can be taken twice and none can be lost.

// enqueueLocked pushes a newly ready task onto its run's ready stack,
// readied by worker home. Caller holds the pool mutex and broadcasts
// afterwards.
func (p *Pool) enqueueLocked(r *run, t int32, home int) {
	r.home[t] = int32(home)
	r.ready = append(r.ready, t)
}

// lightestLocked returns the active run with the least remaining work
// among those with a ready task, breaking exact ties with the worker's
// seeded PRNG — the knob that makes distinct seeds explore distinct
// interleavings. Caller holds the pool mutex.
func (p *Pool) lightestLocked(rng *splitmix) *run {
	var best *run
	for _, r := range p.runs {
		if len(r.ready) == 0 {
			continue
		}
		switch {
		case best == nil || r.remaining < best.remaining:
			best = r
		case r.remaining == best.remaining && rng.next()&1 == 0:
			best = r
		}
	}
	return best
}

// takeLocked claims the newest ready task of the lightest run (the
// shortest expected remaining work), or returns a nil run when nothing
// is claimable. Caller holds the pool mutex.
func (p *Pool) takeLocked(rng *splitmix) (*run, int) {
	r := p.lightestLocked(rng)
	if r == nil {
		return nil, 0
	}
	t := r.ready[len(r.ready)-1]
	r.ready = r.ready[:len(r.ready)-1]
	r.running++
	return r, int(t)
}
