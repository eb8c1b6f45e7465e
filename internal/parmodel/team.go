package parmodel

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/mitigate"
	"repro/internal/sim"
)

// Schedule is the loop schedule kind: how a region's units are split
// across the team.
type Schedule int

const (
	// Static divides iterations contiguously (chunk 0) or round-robin in
	// fixed chunks.
	Static Schedule = iota
	// Dynamic hands out chunks first-come-first-served.
	Dynamic
	// Guided hands out exponentially shrinking chunks.
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "?"
	}
}

// Config tunes the runtime model. OpenMP and SYCL are presets of it.
type Config struct {
	// Schedule and Chunk select the loop schedule (chunk 0 = default:
	// contiguous static ranges / chunk 1 for dynamic-guided minimum).
	// SYCL's work-group claiming is Dynamic with Chunk units per group.
	Schedule Schedule
	Chunk    int
	// ActiveWait spins at region-end barriers (OMP_WAIT_POLICY=active
	// flavour); passive blocks.
	ActiveWait bool
	// ForkOverhead is master-side work per parallel region (SYCL: per
	// kernel submission — queue entry, dependency tracking, handler
	// construction).
	ForkOverhead sim.Time
	// DispatchOverhead is per-chunk claim cost for dynamic/guided (SYCL:
	// per work-group).
	DispatchOverhead sim.Time
	// CostFactor scales every unit's cost (compiler/runtime efficiency).
	CostFactor float64
	// Policy is the scheduling class workload threads (master and workers)
	// are spawned with; the zero value is SCHED_OTHER. PolicyDeadline
	// additionally needs the per-thread CBS reservation below — the
	// deadline-class mitigation runs every team thread under EDF.
	Policy    cpusched.Policy
	DLRuntime sim.Time
	DLPeriod  sim.Time

	// flavour selects the runtime's labels; only the presets set it.
	flavour flavour
}

// OpenMP returns the model constants used for the paper's OpenMP runs:
// static schedule, active waiting, low overheads.
func OpenMP() Config {
	return Config{
		Schedule:         Static,
		Chunk:            0,
		ActiveWait:       true,
		ForkOverhead:     4 * sim.Microsecond,
		DispatchOverhead: 150, // ns
		CostFactor:       1.0,
	}
}

// SYCL returns the model constants used for the paper's SYCL (DPC++ on the
// CPU) runs: a host thread submits each ParallelFor as a kernel to an
// in-order queue and joins the pool that claims its work-groups
// dynamically, one unit per group. The per-kernel submission cost, the
// per-group dispatch cost and the codegen efficiency factor make SYCL
// slower in raw time but more resilient to noise: a delayed worker claims
// fewer groups instead of holding a static-schedule barrier hostage.
func SYCL() Config {
	return Config{
		Schedule:         Dynamic,
		Chunk:            1,
		ActiveWait:       false,
		ForkOverhead:     35 * sim.Microsecond,
		DispatchOverhead: 400, // ns
		CostFactor:       1.08,
		flavour:          flavourSYCL,
	}
}

// flavour identifies which runtime a team presents itself as. It changes
// labels only, plus the runtime name a body observes (workloads scale
// their SYCL efficiency gap on it); the zero value is OpenMP.
type flavour uint8

const (
	flavourOpenMP flavour = iota
	flavourSYCL
)

// labels are a flavour's names in the timeline and in panics.
type labels struct {
	name   string // Model.Name, as Record reports it
	pkg    string // panic prefix
	master string // master/host task name
	region string // region span name format, numbered per region
	order  string // region span arg; empty means the schedule name
	// workers caches the recurring worker task names: teams are rebuilt
	// every rep, and re-formatting identical names each time is measurable
	// in batched series.
	workers [64]string
}

var flavours = [...]*labels{
	flavourOpenMP: newLabels(labels{name: "omp", pkg: "omprt", master: "omp-master",
		region: "parallel-region-%d"}),
	flavourSYCL: newLabels(labels{name: "sycl", pkg: "syclrt", master: "sycl-host",
		region: "kernel-%d", order: "in-order"}),
}

func newLabels(l labels) *labels {
	for i := range l.workers {
		l.workers[i] = fmt.Sprintf("%s-worker-%d", l.name, i)
	}
	return &l
}

// worker returns the task name of worker thread i (i >= 1).
func (l *labels) worker(i int) string {
	if i < len(l.workers) {
		return l.workers[i]
	}
	return fmt.Sprintf("%s-worker-%d", l.name, i)
}

type loopState struct {
	n    int
	cost func(int) Cost
	next int // shared claim cursor for dynamic/guided
}

// team is a fork-join thread team bound to a scheduler and a mitigation
// plan: an OpenMP team, or a SYCL in-order queue with its worker pool.
type team struct {
	s    *cpusched.Scheduler
	plan *mitigate.Plan
	cfg  Config
	lab  *labels

	startBar *cpusched.Barrier
	endBar   *cpusched.Barrier
	loop     loopState
	stop     bool
	// regions counts parallel regions for obs span naming (only advanced
	// while an observer is attached).
	regions int

	cyclesPerNs float64
}

// Start records body (Record) and creates the team: workers are spawned
// immediately as scheduler Programs, parking at the region barrier, and
// the master (SYCL: host) thread executes the recorded phases, joining
// each region as thread 0. It returns the master task, the workload's
// completion handle; the caller drives the engine until it is done.
func Start(s *cpusched.Scheduler, plan *mitigate.Plan, cfg Config, body Body) *cpusched.Task {
	if cfg.CostFactor <= 0 {
		cfg.CostFactor = 1.0
	}
	lab := flavours[cfg.flavour]
	phases := Record(body, plan.Threads, lab.name)
	t := &team{
		s:           s,
		plan:        plan,
		cfg:         cfg,
		lab:         lab,
		startBar:    cpusched.NewBarrier(plan.Threads),
		endBar:      cpusched.NewBarrier(plan.Threads),
		cyclesPerNs: s.Topology().CyclesPerNs(),
	}
	// Workers are threads 1..N-1; master is thread 0.
	for i := 1; i < plan.Threads; i++ {
		s.SpawnProgram(t.spec(i, lab.worker(i)), &workerProgram{t: t, id: i})
	}
	return s.SpawnProgram(t.spec(0, lab.master),
		&masterProgram{t: t, phases: phases, share: workerProgram{t: t}})
}

func (t *team) spec(thread int, name string) cpusched.TaskSpec {
	return cpusched.TaskSpec{
		Name:      name,
		Kind:      cpusched.KindWorkload,
		Affinity:  t.plan.AffinityOf(thread),
		Policy:    t.cfg.Policy,
		DLRuntime: t.cfg.DLRuntime,
		DLPeriod:  t.cfg.DLPeriod,
	}
}

// masterProgram is the master thread: it executes the recorded phases in
// order. A parallel region (SYCL: a kernel submitted and immediately
// waited for) costs ForkOverhead of master-side setup, then the master
// runs thread 0's share through the same workerProgram walk the workers
// run (start barrier, chunks, end barrier). A one-thread team's barriers
// release on arrival, so it needs no special case. After the last phase
// the master raises stop and arrives at the start barrier once more,
// releasing the parked workers to exit.
type masterProgram struct {
	t        *team
	phases   []Phase
	pc       int
	share    workerProgram // thread 0's part of the current region
	inRegion bool
	// spanOpen marks a region whose obs span closes at the fetch after its
	// end barrier; regionStart is its fork instant.
	spanOpen    bool
	regionStart sim.Time
}

func (m *masterProgram) Next(task *cpusched.Task) (cpusched.Request, bool) {
	t := m.t
	if m.inRegion {
		r, _ := m.share.Next(task) // never ends: stop is only raised below
		m.inRegion = m.share.state != wStartBar
		return r, true
	}
	if m.spanOpen {
		// Observability only reads the clock: the span steals no time.
		m.spanOpen = false
		arg := t.lab.order
		if arg == "" {
			arg = t.cfg.Schedule.String()
		}
		t.s.Observer().Span(task.CPU(), fmt.Sprintf(t.lab.region, t.regions),
			t.lab.name, arg, m.regionStart, t.s.Now())
	}
	if m.pc == len(m.phases) {
		if t.stop {
			return cpusched.Request{}, false
		}
		t.stop = true
		return cpusched.ReqBarrier(t.startBar, false), true
	}
	p := &m.phases[m.pc]
	m.pc++
	switch p.Kind {
	case PhaseParallelFor:
		t.loop = loopState{n: p.N, cost: p.Cost}
		if t.s.Observer() != nil {
			m.spanOpen, m.regionStart = true, t.s.Now()
			t.regions++
		}
		m.inRegion = true
		return cpusched.ReqCompute(float64(t.cfg.ForkOverhead) * t.cyclesPerNs), true
	case PhaseCompute:
		return cpusched.ReqCompute(p.Amount * t.cfg.CostFactor), true
	case PhaseMemory:
		return cpusched.ReqMemory(p.Amount * t.cfg.CostFactor), true
	default: // PhaseBlockOn; I/O volume is data, CostFactor does not apply
		return cpusched.ReqBlockOn(t.device(p.Dev), p.Amount), true
	}
}

// workerProgram is one team thread's part of every region: park at the
// region start barrier, claim/execute this thread's chunks, wait at the
// end barrier, repeat. Workers run it directly; the master runs it with id
// 0 inside each region. Shared loop state (t.loop, l.next, t.stop) is read
// and written inside Next, at the simulated instants the scheduler fetches
// each thread's next request, so dynamic/guided claim races resolve in
// fetch order.
type workerProgram struct {
	t     *team
	id    int
	state int
	base  int     // next chunk base (static chunked schedule)
	mem   float64 // memory half of the range whose compute was just yielded
	io    float64 // I/O bytes of the current range (0 = no blocking phase)
	iodev string  // device the I/O phase blocks on
}

const (
	wStartBar   = iota // arrive at the region start barrier
	wBegin             // released: check stop, start this region's loop walk
	wStaticNext        // static chunked: yield the next chunk's compute
	wDispatch          // dynamic/guided: yield the per-chunk dispatch cost
	wClaim             // dynamic/guided: claim a chunk, yield its compute
	wMemory            // yield the memory half of the current range
	wIO                // block on the range's device request (io > 0 only)
	wEndBar            // arrive at the region end barrier
)

// afterUnit is the state following a completed work unit (compute + memory
// + optional I/O): the next chunk of the current schedule, or the region
// end barrier.
func (w *workerProgram) afterUnit() int {
	if w.t.cfg.Schedule == Static {
		if w.t.cfg.Chunk <= 0 {
			return wEndBar
		}
		return wStaticNext
	}
	return wDispatch
}

// unit starts executing iterations [lo, hi): it sums and scales their
// cost, keeps the memory and I/O halves for the states that follow, and
// returns the compute cycles to yield now.
func (w *workerProgram) unit(lo, hi int) float64 {
	t := w.t
	var total Cost
	for i := lo; i < hi; i++ {
		total = total.Add(t.loop.cost(i))
	}
	total = total.Scale(t.cfg.CostFactor)
	w.mem, w.io, w.iodev = total.Bytes, total.IOBytes, total.IODev
	w.state = wMemory
	return total.Cycles
}

func (w *workerProgram) Next(*cpusched.Task) (cpusched.Request, bool) {
	t := w.t
	l := &t.loop
	for {
		switch w.state {
		case wStartBar:
			w.state = wBegin
			return cpusched.ReqBarrier(t.startBar, false), true
		case wBegin:
			if t.stop {
				return cpusched.Request{}, false
			}
			switch t.cfg.Schedule {
			case Static:
				if t.cfg.Chunk <= 0 {
					lo, hi := w.id*l.n/t.plan.Threads, (w.id+1)*l.n/t.plan.Threads
					return cpusched.ReqCompute(w.unit(lo, hi)), true
				}
				w.base = w.id * t.cfg.Chunk
				w.state = wStaticNext
			case Dynamic, Guided:
				w.state = wDispatch
			default:
				panic(t.lab.pkg + ": unknown schedule")
			}
		case wStaticNext:
			if w.base >= l.n {
				w.state = wEndBar
				continue
			}
			lo := w.base
			w.base += t.plan.Threads * t.cfg.Chunk
			return cpusched.ReqCompute(w.unit(lo, min(lo+t.cfg.Chunk, l.n))), true
		case wDispatch:
			// Zero overhead yields a zero-demand request the scheduler
			// skips.
			w.state = wClaim
			return cpusched.ReqCompute(float64(t.cfg.DispatchOverhead) * t.cyclesPerNs), true
		case wClaim:
			// The claim runs at the fetch following the dispatch compute.
			lo := l.next
			if lo >= l.n {
				w.state = wEndBar
				continue
			}
			l.next = min(lo+t.claimSize(lo), l.n)
			return cpusched.ReqCompute(w.unit(lo, l.next)), true
		case wMemory:
			b := w.mem
			w.mem = 0
			if w.io > 0 {
				w.state = wIO
			} else {
				w.state = w.afterUnit()
			}
			return cpusched.ReqMemory(b), true
		case wIO:
			io, dev := w.io, w.iodev
			w.io, w.iodev = 0, ""
			w.state = w.afterUnit()
			return cpusched.ReqBlockOn(t.device(dev), io), true
		case wEndBar:
			w.state = wStartBar
			return cpusched.ReqBarrier(t.endBar, t.cfg.ActiveWait), true
		}
	}
}

// claimSize returns the chunk size a dynamic/guided claim takes when the
// cursor stands at lo.
func (t *team) claimSize(lo int) int {
	minChunk := max(t.cfg.Chunk, 1)
	if t.cfg.Schedule == Dynamic {
		return minChunk
	}
	T := t.plan.Threads
	return max((t.loop.n-lo+2*T-1)/(2*T), minChunk)
}

// device resolves a workload-referenced device name on the scheduler.
func (t *team) device(name string) *cpusched.Device {
	d := t.s.Device(name)
	if d == nil {
		panic(fmt.Sprintf("%s: workload references unregistered device %q", t.lab.pkg, name))
	}
	return d
}
