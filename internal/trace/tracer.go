package trace

import (
	"repro/internal/cpusched"
	"repro/internal/sim"
)

// Tracer records scheduler noise events into a Trace. It implements
// cpusched.Hook. Like the osnoise tracer, it records every interrupt and
// every run interval of non-workload threads; workload threads themselves
// are not recorded (our simulated tracer can tell them apart — the paper
// notes the real osnoise tracer cannot, which it works around by
// subtracting averages; the delta-refinement machinery is exercised either
// way because inherent noise varies run to run).
type Tracer struct {
	trace *Trace
	// RecordInjector controls whether replayed injector noise is recorded
	// (off by default; injection runs are normally untraced).
	RecordInjector bool
	// start offsets event timestamps so they are trace-relative.
	start sim.Time
}

// NewTracer creates a tracer whose timestamps are relative to start.
func NewTracer(start sim.Time) *Tracer {
	return &Tracer{trace: &Trace{}, start: start}
}

var _ cpusched.Hook = (*Tracer)(nil)

// TaskRan implements cpusched.Hook: thread noise records.
func (tr *Tracer) TaskRan(cpu int, t *cpusched.Task, start, end sim.Time) {
	switch t.Kind {
	case cpusched.KindNoiseThread, cpusched.KindOS:
	case cpusched.KindInjector:
		if !tr.RecordInjector {
			return
		}
	default:
		return
	}
	tr.trace.Events = append(tr.trace.Events, Event{
		CPU:      cpu,
		Class:    cpusched.ClassThread,
		Source:   t.Source,
		Start:    start - tr.start,
		Duration: end - start,
	})
}

// IRQRan implements cpusched.Hook: irq and softirq records.
func (tr *Tracer) IRQRan(cpu int, class cpusched.NoiseClass, source string, start, end sim.Time) {
	tr.trace.Events = append(tr.trace.Events, Event{
		CPU:      cpu,
		Class:    class,
		Source:   source,
		Start:    start - tr.start,
		Duration: end - start,
	})
}

// Finish stamps the execution time and labels, and returns the trace.
func (tr *Tracer) Finish(execTime sim.Time, platform, workload, model, strategy string, seed uint64) *Trace {
	t := tr.trace
	t.ExecTime = execTime
	t.Platform = platform
	t.Workload = workload
	t.Model = model
	t.Strategy = strategy
	t.Seed = seed
	t.SortEvents()
	return t
}

// Trace returns the trace recorded so far (unsorted, unlabelled).
func (tr *Tracer) Trace() *Trace { return tr.trace }

// Detach hands ownership of the recorded trace to the caller and re-arms
// the tracer with a fresh buffer sized to the run just recorded, so a
// reused tracer appends into right-sized storage instead of re-growing
// from zero (event storage must escape with the result either way; sizing
// the next buffer from the last run eliminates the growth-chain reallocs
// and copies, which dominated per-rep allocation). The new buffer carries
// the old one's capacity, not its length: event counts vary a little from
// rep to rep, and sizing to the previous length made every
// slightly-longer rep pay one full-buffer realloc and copy. Call it after
// Finish — and after any post-run shutdown records the caller wants
// included.
func (tr *Tracer) Detach() *Trace {
	t := tr.trace
	tr.trace = &Trace{Events: make([]Event, 0, cap(t.Events))}
	return t
}

// Rewind empties the recorded trace in place, keeping its storage, after a
// run whose trace nobody kept: the next run appends into the same buffer
// and allocates none. It overwrites the trace Finish returned, so call it
// only when no one holds that trace; otherwise call Detach.
func (tr *Tracer) Rewind() { tr.trace.Events = tr.trace.Events[:0] }
