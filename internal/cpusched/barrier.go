package cpusched

// Barrier is a reusable (sense-reversing) synchronization barrier for n
// tasks. Waiters either spin (consuming their CPU, OpenMP active-wait
// style) or block (releasing the CPU). The last arriver releases everyone.
type Barrier struct {
	n       int
	waiters []*Task // arrival order; excludes the releasing arriver
	gen     uint64
}

// NewBarrier creates a barrier for n participants. n must be positive.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("cpusched: barrier size must be positive")
	}
	return &Barrier{n: n}
}

// drop removes a killed task from the waiter list so the barrier does not
// deadlock the remaining participants permanently (they still wait for a
// participant that will never come; dropping only cleans bookkeeping).
func (b *Barrier) drop(t *Task) {
	for i, w := range b.waiters {
		if w == t {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			return
		}
	}
}

// barrierScratch holds the waiter-classification buffers for one barrier
// release. Scratches are pooled on the scheduler as a free stack because
// releases nest: a resumed spinner can arrive at — and release — another
// barrier from within processRequests below.
type barrierScratch struct {
	spinners []*Task
	blocked  []*Task
}

func (s *Scheduler) getBarScratch() *barrierScratch {
	if n := len(s.barScratch); n > 0 {
		sc := s.barScratch[n-1]
		s.barScratch = s.barScratch[:n-1]
		return sc
	}
	return &barrierScratch{}
}

func (s *Scheduler) putBarScratch(sc *barrierScratch) {
	for i := range sc.spinners {
		sc.spinners[i] = nil
	}
	for i := range sc.blocked {
		sc.blocked[i] = nil
	}
	sc.spinners = sc.spinners[:0]
	sc.blocked = sc.blocked[:0]
	s.barScratch = append(s.barScratch, sc)
}

// barrierArrive processes task t arriving at b. It reports true when the
// barrier released immediately (t was the last arriver), in which case t's
// body continues without waiting.
func (s *Scheduler) barrierArrive(t *Task, b *Barrier, spin bool) bool {
	if b == nil {
		panic("cpusched: barrier arrive on nil barrier")
	}
	if len(b.waiters)+1 < b.n {
		t.bar = b
		if s.obs != nil {
			t.barArrive = s.eng.Now()
		}
		b.waiters = append(b.waiters, t)
		return false
	}
	// Last arriver: release everyone. Classify every waiter BEFORE
	// resuming any of them: a resumed spinner may immediately block on a
	// different barrier, and must not then be mistaken for a blocked
	// waiter of this one.
	waiters := b.waiters
	// Reuse the waiter backing array for the next generation. Safe even
	// when a resumed waiter re-arrives at b below: by then the
	// classification loop has finished reading waiters.
	b.waiters = waiters[:0]
	b.gen++
	sc := s.getBarScratch()
	for _, w := range waiters {
		w.bar = nil
		if s.obs != nil {
			// The wait span runs from the waiter's arrival to this release;
			// its length is exactly the straggler slack the paper's barrier
			// analyses reason about. The releasing arriver has no span.
			s.obs.Span(w.cpu, "barrier-wait", "barrier", w.Name, w.barArrive, s.eng.Now())
		}
		switch {
		case w.state == StateRunning && w.seg.kind == segSpin:
			sc.spinners = append(sc.spinners, w)
		case (w.state == StateRunnable || w.state == StateThrottled) && w.seg.kind == segSpin:
			// Preempted — or CBS-throttled — while spinning: clear the spin
			// so the task fetches its next request when dispatched (or woken
			// by budget replenishment) again. Leaving the segment in place
			// would resume an infinite spin at a barrier that no longer
			// exists: the task would burn its budget, throttle, replenish,
			// and spin again forever.
			w.seg = segment{kind: segNone}
			w.remaining = 0
		case w.state == StateBlocked:
			sc.blocked = append(sc.blocked, w)
		}
	}
	// Spinners proceed in place: they hold CPUs right now.
	for _, w := range sc.spinners {
		s.account(w)
		s.cancelTimers(w)
		w.seg = segment{kind: segNone}
		w.remaining = 0
		s.processRequests(w)
	}
	for _, w := range sc.blocked {
		s.wake(w)
	}
	s.putBarScratch(sc)
	return true
}
