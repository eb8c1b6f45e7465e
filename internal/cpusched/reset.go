package cpusched

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Reset returns the scheduler to its post-New state so the next rep runs
// as on a freshly built scheduler. The per-CPU structures, bound
// callbacks, and accounting arrays built by New are the seed-independent
// prefix every rep of a normalized spec shares; everything a run dirties
// is restored. Unfinished tasks are killed exactly as Shutdown kills them
// (callers that want the end-of-run trace records call Shutdown first,
// while the tracer is still attached); every task is recycled into the
// task pool; and every piece of mutable state — run queues, IRQ state,
// RT-throttle windows, accounting arrays, sequence counters — resets to
// its post-New value. Backing arrays (heaps, IRQ queues, the timer free
// pool) keep their capacity: that warm storage is the point of reuse, and
// since no scheduling decision reads a capacity, reuse cannot change any
// output.
//
// Reset detaches the tracer and observer, and must be followed by
// resetting the shared engine — pending timers armed by the kill cascade
// are recycled there.
func (s *Scheduler) Reset() {
	// Detach hooks first: the kill cascade below must not record into the
	// next rep's trace or timeline.
	s.tracer = nil
	s.obs = nil
	for _, t := range s.tasks {
		s.Kill(t)
	}
	if s.balanceTimer != nil {
		s.balanceTimer.Cancel()
		s.balanceTimer = nil
	}
	for i, t := range s.tasks {
		t.recycle()
		s.taskPool = append(s.taskPool, t)
		s.tasks[i] = nil
	}
	s.tasks = s.tasks[:0]
	for _, c := range s.cpus {
		c.curr = nil
		c.dl.reset()
		c.fifo.reset()
		c.fair.reset()
		c.minVruntime = 0
		c.inIRQ = false
		c.irqStart = 0
		c.irqClass = 0
		c.irqSource = ""
		c.irqWake = nil
		// Clear the consumed queue's stale payloads (sources, wake
		// pointers) so recycled tasks are not pinned by the backing array.
		for i := range c.irqQ {
			c.irqQ[i] = pendingIRQ{}
		}
		c.irqQ = c.irqQ[:0]
		c.irqHead = 0
		c.pendingSteal = 0
		// Timer handles are cancelled through the still-live engine; a
		// non-nil handle here is always pending (fired timers nil their
		// field in the callback), so Cancel cannot hit a recycled struct.
		if c.sliceTimer != nil {
			c.sliceTimer.Cancel()
			c.sliceTimer = nil
		}
		c.rtWindowStart = 0
		c.rtUsed = 0
		c.rtThrottled = false
		if c.throttleTimer != nil {
			c.throttleTimer.Cancel()
			c.throttleTimer = nil
		}
	}
	// Devices are per-rep state: each rep re-registers its own in its body,
	// exactly as it re-spawns its tasks. Their pending service timers need
	// no cancellation here — drop() already suppressed the wakeups during
	// the kill cascade, and the engine reset that must follow recycles the
	// timers wholesale.
	clear(s.devices)
	for i := range s.kindTime {
		s.kindTime[i] = [4]sim.Time{}
	}
	for i := range s.irqTime {
		s.irqTime[i] = 0
	}
	// The kill cascade above emptied the stream group (memGroup) and
	// cancelled its timer; a flush it deferred is dropped with the engine's
	// BeforeAdvance hook by the engine reset that follows.
	s.memStreams = 0
	s.memCPUs = machine.CPUSet{}
	s.memRate = s.topo.MemRate(0)
	s.irqCPUs = machine.CPUSet{}
	s.stealCPUs = machine.CPUSet{}
	s.dueCPUs = machine.CPUSet{}
	s.staleDue = machine.CPUSet{}
	s.walkAt = -1
	s.memEpoch = 0
	s.flush = memFlush{}
	s.flushHooked = false
	s.nextID = 0
	s.seq = 0
	s.arrival = 0
	s.liveTasks = 0
	s.ContextSwitches = 0
	s.Requests = 0
	s.MemRerates = 0
}
