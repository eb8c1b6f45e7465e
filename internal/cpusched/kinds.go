// Package cpusched simulates a Linux-like CPU scheduler on top of the
// discrete-event engine: per-CPU runqueues with a fair (CFS-like, vruntime)
// class and a real-time FIFO class with strict preemption of fair tasks,
// interrupt context that preempts everything, wake-up placement, periodic
// idle balancing, affinity masks, and an optional RT-throttling fail-safe
// (the one the paper disables during noise injection).
//
// Task bodies are Programs: state machines the scheduler advances on the
// engine thread, one request per fetch, so simulations remain
// deterministic.
//
// Execution progress uses a fluid rate model: compute work (cycles) runs at
// the core clock, halved-ish when the SMT sibling is busy; memory work
// (bytes) shares the machine's bandwidth equally among concurrent streams,
// capped by the per-core bandwidth (see machine.Topology.MemRate).
package cpusched

// Policy is the scheduling class of a task.
type Policy int

const (
	// PolicyOther is the default Linux time-sharing class (CFS).
	PolicyOther Policy = iota
	// PolicyFIFO is the real-time first-in-first-out class: it always
	// preempts PolicyOther and is never preempted by it.
	PolicyFIFO
	// PolicyDeadline is the EDF class with CBS budget enforcement (see
	// deadline.go). It sits above FIFO: a runnable deadline task preempts
	// both other classes, and deadline tasks order among themselves by
	// earliest absolute deadline.
	PolicyDeadline
)

func (p Policy) String() string {
	switch p {
	case PolicyOther:
		return "SCHED_OTHER"
	case PolicyFIFO:
		return "SCHED_FIFO"
	case PolicyDeadline:
		return "SCHED_DEADLINE"
	default:
		return "SCHED_?"
	}
}

// Kind classifies tasks for tracing and reporting.
type Kind int

const (
	// KindWorkload marks application threads under measurement.
	KindWorkload Kind = iota
	// KindNoiseThread marks OS background threads (kworkers, daemons).
	KindNoiseThread
	// KindInjector marks replayed noise from the noise injector.
	KindInjector
	// KindOS marks other bookkeeping tasks.
	KindOS
)

func (k Kind) String() string {
	switch k {
	case KindWorkload:
		return "workload"
	case KindNoiseThread:
		return "noise"
	case KindInjector:
		return "injector"
	case KindOS:
		return "os"
	default:
		return "?"
	}
}

// NoiseClass distinguishes the three osnoise event classes from the paper's
// Figure 3.
type NoiseClass int

const (
	// ClassIRQ is hardware interrupt noise (e.g. local_timer).
	ClassIRQ NoiseClass = iota
	// ClassSoftIRQ is software interrupt noise (RCU, SCHED, TIMER, ...).
	ClassSoftIRQ
	// ClassThread is thread noise (kworkers, daemons).
	ClassThread
)

func (c NoiseClass) String() string {
	switch c {
	case ClassIRQ:
		return "irq_noise"
	case ClassSoftIRQ:
		return "softirq_noise"
	case ClassThread:
		return "thread_noise"
	default:
		return "?"
	}
}
