package sched

// The deques and the claim policy. Every ready task is indexed twice:
// once on the deque of the worker that readied it (locality) and once
// on its run's ready stack (the shortest-remaining-first claim path).
// Claiming flips the task's state under the pool mutex; the other
// structure's entry goes stale and is skipped when encountered, so
// no task can be taken twice and none can be lost.

// taskRef names one task of one run.
type taskRef struct {
	r    *run
	task int32
}

// deque is one worker's work queue: push and pop at the tail (LIFO,
// cache-warm continuations first), steal from the head (FIFO, the
// oldest — typically largest — subtree). head is an index so steals
// are O(1) without shifting.
type deque struct {
	items []taskRef
	head  int
}

func (d *deque) push(rf taskRef) {
	d.items = append(d.items, rf)
}

// peekTail returns the newest live entry without removing it, pruning
// stale (already claimed) tail entries. Caller holds the pool mutex.
func (d *deque) peekTail() (taskRef, bool) {
	for len(d.items) > d.head {
		rf := d.items[len(d.items)-1]
		if rf.r.state[rf.task] == taskReady {
			return rf, true
		}
		d.items = d.items[:len(d.items)-1]
	}
	d.reset()
	return taskRef{}, false
}

func (d *deque) popTail() (taskRef, bool) {
	rf, ok := d.peekTail()
	if ok {
		d.items = d.items[:len(d.items)-1]
	}
	return rf, ok
}

func (d *deque) reset() {
	d.items = d.items[:0]
	d.head = 0
}

// takeKind classifies how a task was claimed, for the steal counters.
type takeKind uint8

const (
	takeNone  takeKind = iota
	takePop            // own deque, tail
	takeSteal          // another worker's deque entry
	takePreempt
)

// enqueueLocked publishes a newly ready task on worker home's deque
// and its run's ready stack. Caller holds the pool mutex and
// broadcasts afterwards.
func (p *Pool) enqueueLocked(r *run, t int32, home int) {
	r.state[t] = taskReady
	r.home[t] = int32(home)
	r.ready = append(r.ready, t)
	p.deques[home].push(taskRef{r: r, task: t})
}

// lightestLocked returns the active run with the least remaining work
// among those with a claimable task, breaking exact ties with the
// worker's seeded PRNG — the knob that makes distinct steal seeds
// explore distinct interleavings. Caller holds the pool mutex.
func (p *Pool) lightestLocked(rng *splitmix) *run {
	var best *run
	for _, r := range p.runs {
		if !r.hasReady() {
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

// takeLocked claims one task for worker w, or returns a zero ref when
// nothing is claimable. Policy: find the lightest run (shortest
// expected remaining work); pop the own deque's tail when its top task
// belongs to that run (the locality fast path); otherwise take the
// lightest run's most recently readied task — a steal out of whichever
// victim deque holds it, and a preemption when own work was deferred
// for it. Caller holds the pool mutex.
func (p *Pool) takeLocked(w int, rng *splitmix) (taskRef, takeKind) {
	rm := p.lightestLocked(rng)
	if rm == nil {
		return taskRef{}, takeNone
	}
	own, ownOK := p.deques[w].peekTail()
	if ownOK && own.r == rm {
		rf, _ := p.deques[w].popTail()
		p.claimLocked(rf)
		return rf, takePop
	}
	t, ok := rm.takeReady()
	if !ok {
		// hasReady held under the same lock; unreachable, but fail safe.
		return taskRef{}, takeNone
	}
	rf := taskRef{r: rm, task: t}
	p.claimLocked(rf)
	switch {
	case rm.home[t] == int32(w):
		return rf, takePop
	case ownOK:
		return rf, takePreempt
	default:
		return rf, takeSteal
	}
}

// claimLocked transitions a ready task to running.
func (p *Pool) claimLocked(rf taskRef) {
	rf.r.state[rf.task] = taskRunning
	rf.r.running++
}
