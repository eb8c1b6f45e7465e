// Package obs is the simulator's observability layer: a span tracer keyed
// to simulated time, a bounded flight recorder, and a counter/gauge/
// histogram registry shared by the CLI and the daemon.
//
// Unlike the osnoise-style tracer (internal/trace.Tracer attached via
// cpusched.SetTracer), which deliberately steals simulated CPU time per
// recorded event to model the paper's Table 1 tracing overhead, an obs
// Recorder is a purely passive observer: attaching one never changes a
// single scheduling decision or timestamp, so simulation outputs are
// byte-identical with observability on or off. The golden-fixture tests in
// internal/experiment pin that property.
//
// A Recorder is owned by one simulation run and, like the engine it
// observes, is not safe for concurrent use. The Registry is safe for
// concurrent use (the daemon updates it from request handlers).
package obs

import "repro/internal/sim"

// Phase classifies an event, mirroring the Chrome Trace Event Format
// phase letters.
type Phase byte

const (
	// PhaseSpan is a complete interval ("X"): a task occupying a CPU, an
	// interrupt, a barrier wait.
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event ("i"): a preemption, a migration, a
	// noise spawn.
	PhaseInstant Phase = 'i'
)

// Event is one observed scheduling event in simulated time. Fields are
// primitives only so recording an event is a struct copy, never an
// allocation.
type Event struct {
	// Start is the simulated begin instant (the instant itself for
	// PhaseInstant); Dur is the span length, 0 for instants.
	Start sim.Time `json:"start_ns"`
	Dur   sim.Time `json:"dur_ns,omitempty"`
	Phase Phase    `json:"phase"`
	// CPU is the logical CPU the event is attributed to.
	CPU int `json:"cpu"`
	// Name identifies the event ("nbody-w3", "preempt", "barrier-wait");
	// Cat groups it for trace viewers ("workload", "sched", "irq_noise");
	// Arg carries one free-form detail (source, victim, policy).
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Arg  string `json:"arg,omitempty"`
}

// Defaults for Options fields left zero.
const (
	DefaultRing      = 256
	DefaultMaxEvents = 1 << 20
)

// Options configures a Recorder.
type Options struct {
	// Timeline keeps the full event stream for Chrome-trace export. When
	// false no event is stored beyond the flight ring.
	Timeline bool
	// Ring is the flight-recorder capacity in events (0 = DefaultRing).
	Ring int
	// MaxEvents caps the timeline window: the first MaxEvents events are
	// admitted, and excess events are counted in Dropped instead
	// (0 = DefaultMaxEvents).
	MaxEvents int
	// OnEvent, when non-nil, receives every event the timeline window
	// admits, in emission order, whether or not Timeline stores it. It
	// lets a consumer fold a run's events as they are emitted instead of
	// keeping them. It runs on the simulation's thread.
	OnEvent func(Event)
	// Reg, when non-nil, is the registry run-level counters are published
	// to; a Recorder created with a nil Reg gets its own.
	Reg *Registry
}

// Recorder collects events from one simulation run: optionally the full
// timeline, and always a bounded ring of the most recent events (the
// flight recorder, dumped when a rep fails). It is not safe for concurrent
// use; the simulation engine is single-threaded and task bodies only run
// while the engine thread is parked, so all emission sites are serialized.
type Recorder struct {
	timeline  []Event
	keep      bool
	onEvent   func(Event)
	maxEvents int
	kept      int // events admitted to the timeline window
	dropped   uint64

	ring     []Event
	ringNext int
	ringLen  int

	total uint64
	reg   *Registry

	// root is non-nil on a lane view (see Lane): events recorded through
	// the view are offset by cpuBase and stored on the root recorder.
	root    *Recorder
	cpuBase int

	// lanes, when non-nil, names the per-node CPU blocks of a multi-node
	// run; WriteChromeJSON groups the export by them (one Perfetto process
	// per node).
	lanes []NodeLane
}

// NewRecorder creates a recorder with the given options.
func NewRecorder(opt Options) *Recorder {
	ring := opt.Ring
	if ring <= 0 {
		ring = DefaultRing
	}
	maxEv := opt.MaxEvents
	if maxEv <= 0 {
		maxEv = DefaultMaxEvents
	}
	reg := opt.Reg
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{
		keep:      opt.Timeline,
		onEvent:   opt.OnEvent,
		maxEvents: maxEv,
		ring:      make([]Event, ring),
		reg:       reg,
	}
}

// self resolves a lane view to its root recorder; reads always happen on
// the root, which owns the timeline, ring, and counters.
func (r *Recorder) self() *Recorder {
	if r.root != nil {
		return r.root
	}
	return r
}

// Lane returns a view of r that attributes events to the CPU block
// starting at base: an event recorded on CPU c through the lane lands on
// the root recorder as CPU base+c. Lanes let the per-node schedulers of a
// multi-node simulation share one recorder (one timeline, one flight
// ring, one registry) while keeping their CPUs in disjoint blocks. A lane
// of a lane composes offsets. Like the root recorder, a lane is not safe
// for concurrent use — all per-node schedulers of a run share one engine
// thread.
func (r *Recorder) Lane(base int) *Recorder {
	return &Recorder{root: r.self(), cpuBase: r.cpuBase + base}
}

// NodeLane names one node's CPU block in the cluster-global numbering,
// for node-grouped Chrome-trace export.
type NodeLane struct {
	// Name labels the node ("node0", "node1 (straggler)").
	Name string `json:"name"`
	// CPUBase is the block's first global CPU; NumCPUs its width.
	CPUBase int `json:"cpu_base"`
	NumCPUs int `json:"num_cpus"`
}

// SetNodeLanes declares the per-node CPU blocks of the run the recorder
// observes. WriteChromeJSON then groups the export by node (one Perfetto
// process per node) instead of one flat row set.
func (r *Recorder) SetNodeLanes(lanes []NodeLane) { r.self().lanes = lanes }

// NodeLanes returns the declared per-node CPU blocks, nil for
// single-node runs.
func (r *Recorder) NodeLanes() []NodeLane { return r.self().lanes }

// Registry returns the registry run-level counters are published to.
func (r *Recorder) Registry() *Registry { return r.self().reg }

// Span records a complete interval [start, end) on a CPU.
func (r *Recorder) Span(cpu int, name, cat, arg string, start, end sim.Time) {
	if end < start {
		return
	}
	r.add(Event{Start: start, Dur: end - start, Phase: PhaseSpan,
		CPU: cpu, Name: name, Cat: cat, Arg: arg})
}

// Instant records a point event at simulated time at.
func (r *Recorder) Instant(cpu int, name, cat, arg string, at sim.Time) {
	r.add(Event{Start: at, Phase: PhaseInstant, CPU: cpu, Name: name,
		Cat: cat, Arg: arg})
}

func (r *Recorder) add(ev Event) {
	if r.root != nil {
		ev.CPU += r.cpuBase
		r.root.add(ev)
		return
	}
	r.total++
	r.ring[r.ringNext] = ev
	r.ringNext++
	if r.ringNext == len(r.ring) {
		r.ringNext = 0
	}
	if r.ringLen < len(r.ring) {
		r.ringLen++
	}
	if !r.keep && r.onEvent == nil {
		return
	}
	if r.kept >= r.maxEvents {
		r.dropped++
		return
	}
	r.kept++
	if r.keep {
		r.timeline = append(r.timeline, ev)
	}
	if r.onEvent != nil {
		r.onEvent(ev)
	}
}

// Total returns how many events were emitted to the recorder.
func (r *Recorder) Total() uint64 { return r.self().total }

// Dropped returns how many events fell outside the timeline window
// (MaxEvents); it counts only when a timeline or OnEvent is set.
func (r *Recorder) Dropped() uint64 { return r.self().dropped }

// Events returns the recorded timeline in emission order (empty unless
// Options.Timeline). The slice is the recorder's own; do not mutate it.
func (r *Recorder) Events() []Event { return r.self().timeline }

// Recent returns a copy of the flight ring in emission order: the most
// recent events, oldest first.
func (r *Recorder) Recent() []Event {
	r = r.self()
	out := make([]Event, 0, r.ringLen)
	if r.ringLen == len(r.ring) {
		out = append(out, r.ring[r.ringNext:]...)
		out = append(out, r.ring[:r.ringNext]...)
		return out
	}
	return append(out, r.ring[:r.ringLen]...)
}
