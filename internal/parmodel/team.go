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
	// in pooled series.
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

// Program is a body compiled for one team size and runtime config: its
// recorded phases and, for every ParallelFor phase, the cost of each chunk
// the phase's schedule hands out. Chunk boundaries depend only on the trip
// count, the team size and the schedule, never on which thread claims a
// chunk or when, so a Program holds nothing seed-dependent: one serves
// every rep of a series, read-only.
type Program struct {
	cfg     Config
	threads int
	phases  []Phase
	// chunks[i] is phase i's chunk costs in lo order, summed in iteration
	// order and not yet scaled by CostFactor (nil for master phases). All
	// of them are windows of one table.
	chunks [][]Cost
}

// Compile records body (Record) for a team of threads and sums every
// ParallelFor phase's chunks once. A static schedule with chunk 0 has one
// contiguous range per thread; static chunked and dynamic schedules cut
// the loop every max(Chunk, 1) iterations; a guided chunk starting at lo
// takes max(ceil((n-lo)/(2*threads)), max(Chunk, 1)) iterations; SYCL's
// work-groups are the dynamic schedule's chunks. It panics on a negative
// trip count or an unknown schedule.
func Compile(body Body, threads int, cfg Config) *Program {
	if cfg.CostFactor <= 0 {
		cfg.CostFactor = 1.0
	}
	lab := flavours[cfg.flavour]
	if cfg.Schedule != Static && cfg.Schedule != Dynamic && cfg.Schedule != Guided {
		panic(lab.pkg + ": unknown schedule")
	}
	p := &Program{cfg: cfg, threads: threads, phases: Record(body, threads, lab.name)}
	p.chunks = make([][]Cost, len(p.phases))
	size := 0
	for _, ph := range p.phases {
		if ph.Kind == PhaseParallelFor {
			size += p.bounds(ph.N, func(int, int) {})
		}
	}
	table := make([]Cost, size)
	for i, ph := range p.phases {
		if ph.Kind != PhaseParallelFor {
			continue
		}
		k := 0
		p.bounds(ph.N, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				table[k] = table[k].Add(ph.Cost(it))
			}
			k++
		})
		p.chunks[i], table = table[:k:k], table[k:]
	}
	return p
}

// bounds calls f with every chunk [lo, hi) of an n-iteration region in lo
// order and returns the chunk count.
func (p *Program) bounds(n int, f func(lo, hi int)) int {
	T, c := p.threads, max(p.cfg.Chunk, 1)
	if p.cfg.Schedule == Static && p.cfg.Chunk <= 0 {
		for k := 0; k < T; k++ {
			f(k*n/T, (k+1)*n/T)
		}
		return T
	}
	k := 0
	for lo := 0; lo < n; k++ {
		size := c
		if p.cfg.Schedule == Guided {
			size = max((n-lo+2*T-1)/(2*T), c)
		}
		hi := min(lo+size, n)
		f(lo, hi)
		lo = hi
	}
	return k
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
	// chunks is the current region's chunk table; next is its shared claim
	// cursor (dynamic/guided), a chunk index.
	chunks []Cost
	next   int
	stop   bool
	// regions counts parallel regions for obs span naming (only advanced
	// while an observer is attached).
	regions int

	cyclesPerNs float64
}

// Start creates the team that runs prog: workers are spawned immediately
// as scheduler Programs, parking at the region barrier, and the master
// (SYCL: host) thread executes the compiled phases, joining each region as
// thread 0. It returns the master task, the workload's completion handle;
// the caller drives the engine until it is done. Start only reads prog, so
// concurrent reps may share it. It panics when prog was compiled for a
// team size other than plan.Threads.
func Start(s *cpusched.Scheduler, plan *mitigate.Plan, prog *Program) *cpusched.Task {
	lab := flavours[prog.cfg.flavour]
	if prog.threads != plan.Threads {
		panic(fmt.Sprintf("%s: program compiled for %d threads, plan has %d",
			lab.pkg, prog.threads, plan.Threads))
	}
	t := &team{
		s:           s,
		plan:        plan,
		cfg:         prog.cfg,
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
		&masterProgram{t: t, prog: prog, share: workerProgram{t: t}})
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

// masterProgram is the master thread: it executes the compiled phases in
// order. A parallel region (SYCL: a kernel submitted and immediately
// waited for) costs ForkOverhead of master-side setup, then the master
// runs thread 0's share through the same workerProgram walk the workers
// run (start barrier, chunks, end barrier). A one-thread team's barriers
// release on arrival, so it needs no special case. After the last phase
// the master raises stop and arrives at the start barrier once more,
// releasing the parked workers to exit.
type masterProgram struct {
	t        *team
	prog     *Program
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
	if m.pc == len(m.prog.phases) {
		if t.stop {
			return cpusched.Request{}, false
		}
		t.stop = true
		return cpusched.ReqBarrier(t.startBar, false), true
	}
	p, chunks := &m.prog.phases[m.pc], m.prog.chunks[m.pc]
	m.pc++
	switch p.Kind {
	case PhaseParallelFor:
		t.chunks, t.next = chunks, 0
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
// 0 inside each region. Shared loop state (t.chunks, t.next, t.stop) is
// read and written inside Next, at the simulated instants the scheduler
// fetches each thread's next request, so dynamic/guided claim races resolve
// in fetch order.
type workerProgram struct {
	t     *team
	id    int
	state int
	k     int     // next chunk index (static schedule)
	mem   float64 // memory half of the range whose compute was just yielded
	io    float64 // I/O bytes of the current range (0 = no blocking phase)
	iodev string  // device the I/O phase blocks on
}

const (
	wStartBar   = iota // arrive at the region start barrier
	wBegin             // released: check stop, start this region's loop walk
	wStaticNext        // static: yield the next chunk's compute
	wDispatch          // dynamic/guided: yield the per-chunk dispatch cost
	wClaim             // dynamic/guided: claim a chunk, yield its compute
	wMemory            // yield the memory half of the current range
	wIO                // block on the range's device request (io > 0 only)
	wEndBar            // arrive at the region end barrier
)

// afterUnit is the state following a completed work unit (compute + memory
// + optional I/O): the next chunk of the current schedule.
func (w *workerProgram) afterUnit() int {
	if w.t.cfg.Schedule == Static {
		return wStaticNext
	}
	return wDispatch
}

// unit starts executing chunk k of the current region: it scales the
// chunk's compiled cost, keeps the memory and I/O halves for the states
// that follow, and returns the compute cycles to yield now.
func (w *workerProgram) unit(k int) float64 {
	total := w.t.chunks[k].Scale(w.t.cfg.CostFactor)
	w.mem, w.io, w.iodev = total.Bytes, total.IOBytes, total.IODev
	w.state = wMemory
	return total.Cycles
}

func (w *workerProgram) Next(*cpusched.Task) (cpusched.Request, bool) {
	t := w.t
	for {
		switch w.state {
		case wStartBar:
			w.state = wBegin
			return cpusched.ReqBarrier(t.startBar, false), true
		case wBegin:
			if t.stop {
				return cpusched.Request{}, false
			}
			// A static thread takes chunks id, id+T, ... (with chunk 0 there
			// are T chunks, one per thread); dynamic and guided claim.
			w.k, w.state = w.id, wStaticNext
			if t.cfg.Schedule != Static {
				w.state = wDispatch
			}
		case wStaticNext:
			if w.k >= len(t.chunks) {
				w.state = wEndBar
				continue
			}
			k := w.k
			w.k += t.plan.Threads
			return cpusched.ReqCompute(w.unit(k)), true
		case wDispatch:
			// Zero overhead yields a zero-demand request the scheduler
			// skips.
			w.state = wClaim
			return cpusched.ReqCompute(float64(t.cfg.DispatchOverhead) * t.cyclesPerNs), true
		case wClaim:
			// The claim runs at the fetch following the dispatch compute.
			k := t.next
			if k >= len(t.chunks) {
				w.state = wEndBar
				continue
			}
			t.next++
			return cpusched.ReqCompute(w.unit(k)), true
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

// device resolves a workload-referenced device name on the scheduler.
func (t *team) device(name string) *cpusched.Device {
	d := t.s.Device(name)
	if d == nil {
		panic(fmt.Sprintf("%s: workload references unregistered device %q", t.lab.pkg, name))
	}
	return d
}
