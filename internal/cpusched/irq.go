package cpusched

import "repro/internal/sim"

// InjectIRQ delivers an interrupt of the given class to a logical CPU. The
// interrupt runs in interrupt context: it pauses whatever occupies the CPU
// (including FIFO tasks) for dur, then resumes it. Back-to-back interrupts
// queue and run sequentially. The tracer, when attached, records one event
// per interrupt, mirroring the irq_noise/softirq_noise records of the
// paper's Figure 3.
func (s *Scheduler) InjectIRQ(cpu int, class NoiseClass, source string, dur sim.Time) {
	if cpu < 0 || cpu >= len(s.cpus) {
		panic("cpusched: InjectIRQ cpu out of range")
	}
	if dur <= 0 {
		return
	}
	c := s.cpus[cpu]
	if c.inIRQ {
		c.irqQ = append(c.irqQ, pendingIRQ{class: class, source: source, dur: dur})
		return
	}
	s.startIRQ(c, class, source, dur, nil)
}

// startIRQ enters interrupt context on c. wake, when non-nil, is the
// device-blocked task this completion interrupt wakes when its handler
// ends (see device.go); plain noise interrupts pass nil.
func (s *Scheduler) startIRQ(c *cpuState, class NoiseClass, source string, dur sim.Time, wake *Task) {
	// The tracer runs in interrupt context: recording the event extends
	// the interrupt by the tracing overhead (this is the dominant part of
	// Table 1's measured overhead, since timer interrupts dominate event
	// counts).
	if s.tracer != nil && s.opt.TraceOverhead > 0 {
		dur += s.opt.TraceOverhead
	}
	c.inIRQ = true
	s.irqCPUs = s.irqCPUs.Set(c.id)
	c.irqStart = s.eng.Now()
	c.irqClass = class
	c.irqSource = source
	c.irqWake = wake
	if c.curr != nil {
		s.refresh(c.curr) // rate drops to 0 while the interrupt runs
	}
	s.occupancyChanged(c) // the sibling sees this hardware thread as busy
	// irqEndFn is bound once per CPU; the in-flight interrupt's identity
	// lives in the cpuState, so interrupt delivery allocates nothing.
	s.eng.After(dur, c.irqEndFn)
}

func (s *Scheduler) endIRQ(c *cpuState) {
	start := c.irqStart
	class, source := c.irqClass, c.irqSource
	c.inIRQ = false
	s.irqCPUs = s.irqCPUs.Clear(c.id)
	s.irqTime[c.id] += s.eng.Now() - start
	if s.obs != nil {
		s.obs.Span(c.id, source, class.String(), "irq", start, s.eng.Now())
	}
	if s.tracer != nil {
		s.tracer.IRQRan(c.id, class, source, start, s.eng.Now())
	}
	// A device-completion handler wakes its blocked task as its last act:
	// the wakeup (and any dispatch it causes) happens at handler end, after
	// the interrupt's span was recorded, but before any queued interrupt
	// re-enters interrupt context on this CPU.
	if w := c.irqWake; w != nil {
		c.irqWake = nil
		s.wakeFromIO(w)
	}
	if c.irqHead < len(c.irqQ) {
		next := c.irqQ[c.irqHead]
		c.irqHead++
		s.startIRQ(c, next.class, next.source, next.dur, next.wake)
		// Tracing overhead applies once the CPU is interruptible again.
		return
	}
	// Queue drained: rewind to the start of the backing array so the next
	// back-to-back burst appends without reallocating (a plain [1:] reslice
	// would shed the consumed prefix's capacity every burst).
	c.irqQ = c.irqQ[:0]
	c.irqHead = 0
	if c.curr != nil {
		s.refresh(c.curr)
	}
	s.occupancyChanged(c)
}
