// Package omprt models an OpenMP-style runtime on the simulated scheduler:
// a fork-join thread team with static, dynamic, and guided loop schedules,
// configurable chunk sizes, an active (spinning) or passive wait policy,
// and small fork/dispatch overheads. Its noise sensitivity is structural:
// with the default static schedule every region ends in a barrier that a
// single delayed thread holds up — the straggler effect the paper observes
// for OpenMP under injected noise.
package omprt

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

// Schedule is the OpenMP loop schedule kind.
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

// ParseSchedule parses "st"/"static", "dy"/"dynamic", "gd"/"guided" — the
// short forms are the x-axis labels of the paper's Figure 1.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "st", "static":
		return Static, nil
	case "dy", "dynamic":
		return Dynamic, nil
	case "gd", "guided":
		return Guided, nil
	default:
		return 0, fmt.Errorf("omprt: unknown schedule %q", s)
	}
}

// Config tunes the runtime model.
type Config struct {
	// Schedule and Chunk select the loop schedule (chunk 0 = default:
	// contiguous static ranges / chunk 1 for dynamic-guided minimum).
	Schedule Schedule
	Chunk    int
	// ActiveWait spins at region-end barriers (OMP_WAIT_POLICY=active
	// flavour); passive blocks.
	ActiveWait bool
	// ForkOverhead is master-side work per parallel region.
	ForkOverhead sim.Time
	// DispatchOverhead is per-chunk claim cost for dynamic/guided.
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
}

// DefaultConfig returns the model constants used for the paper's OpenMP
// runs: static schedule, active waiting, low overheads.
func DefaultConfig() Config {
	return Config{
		Schedule:         Static,
		Chunk:            0,
		ActiveWait:       true,
		ForkOverhead:     4 * sim.Microsecond,
		DispatchOverhead: 150, // ns
		CostFactor:       1.0,
	}
}

type loopState struct {
	n    int
	cost func(int) parmodel.Cost
	next int // shared claim cursor for dynamic/guided
}

// Team is an OpenMP-style thread team bound to a scheduler and a mitigation
// plan.
type Team struct {
	s    *cpusched.Scheduler
	plan *mitigate.Plan
	cfg  Config

	startBar *cpusched.Barrier
	endBar   *cpusched.Barrier
	loop     loopState
	stop     bool
	// regions counts parallel regions for obs span naming (only advanced
	// while an observer is attached).
	regions int

	cyclesPerNs float64

	master  *cpusched.Task
	workers []*cpusched.Task
}

// Start records body (parmodel.Record) and creates the team: master and
// workers are spawned immediately as scheduler Programs, workers parking
// at the region barrier while the master executes the recorded phases. It
// returns the team; the caller drives the engine until Master is done.
func Start(s *cpusched.Scheduler, plan *mitigate.Plan, cfg Config, body parmodel.Body) *Team {
	if cfg.CostFactor <= 0 {
		cfg.CostFactor = 1.0
	}
	phases := parmodel.Record(body, plan.Threads, "omp")
	t := &Team{
		s:           s,
		plan:        plan,
		cfg:         cfg,
		startBar:    cpusched.NewBarrier(plan.Threads),
		endBar:      cpusched.NewBarrier(plan.Threads),
		cyclesPerNs: s.Topology().CyclesPerNs(),
	}
	// Workers are threads 1..N-1; master is thread 0.
	for i := 1; i < plan.Threads; i++ {
		t.workers = append(t.workers, s.SpawnProgram(t.spec(i, workerName(i)), &workerProgram{t: t, id: i}))
	}
	t.master = s.SpawnProgram(t.spec(0, "omp-master"),
		&masterProgram{t: t, phases: phases, share: workerProgram{t: t}})
	return t
}

func (t *Team) spec(thread int, name string) cpusched.TaskSpec {
	return cpusched.TaskSpec{
		Name:      name,
		Kind:      cpusched.KindWorkload,
		Affinity:  t.plan.AffinityOf(thread),
		Policy:    t.cfg.Policy,
		DLRuntime: t.cfg.DLRuntime,
		DLPeriod:  t.cfg.DLPeriod,
	}
}

// Master returns the master task (the workload's completion handle).
func (t *Team) Master() *cpusched.Task { return t.master }

// masterProgram is the master thread: it executes the recorded phases in
// order. A parallel region costs ForkOverhead of master-side setup, then
// the master runs thread 0's share through the same workerProgram walk the
// workers run (start barrier, chunks, end barrier). A one-thread team's
// barriers release on arrival, so it needs no special case. After the last
// phase the master raises stop and arrives at the start barrier once more,
// releasing the parked workers to exit.
type masterProgram struct {
	t        *Team
	phases   []parmodel.Phase
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
		t.s.Observer().Span(task.CPU(), fmt.Sprintf("parallel-region-%d", t.regions),
			"omp", t.cfg.Schedule.String(), m.regionStart, t.s.Now())
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
	case parmodel.PhaseParallelFor:
		t.loop = loopState{n: p.N, cost: p.Cost}
		if t.s.Observer() != nil {
			m.spanOpen, m.regionStart = true, t.s.Now()
			t.regions++
		}
		m.inRegion = true
		return cpusched.ReqCompute(float64(t.cfg.ForkOverhead) * t.cyclesPerNs), true
	case parmodel.PhaseCompute:
		return cpusched.ReqCompute(p.Amount * t.cfg.CostFactor), true
	case parmodel.PhaseMemory:
		return cpusched.ReqMemory(p.Amount * t.cfg.CostFactor), true
	default: // parmodel.PhaseBlockOn; I/O volume is data, CostFactor does not apply
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
	t     *Team
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
			switch t.cfg.Schedule {
			case Static:
				if t.cfg.Chunk <= 0 {
					l := &t.loop
					lo := w.id * l.n / t.plan.Threads
					hi := (w.id + 1) * l.n / t.plan.Threads
					c, b, io, dev := t.rangeCost(lo, hi)
					w.mem, w.io, w.iodev = b, io, dev
					w.state = wMemory
					return cpusched.ReqCompute(c), true
				}
				w.base = w.id * t.cfg.Chunk
				w.state = wStaticNext
			case Dynamic, Guided:
				w.state = wDispatch
			default:
				panic("omprt: unknown schedule")
			}
		case wStaticNext:
			l := &t.loop
			if w.base >= l.n {
				w.state = wEndBar
				continue
			}
			hi := w.base + t.cfg.Chunk
			if hi > l.n {
				hi = l.n
			}
			c, b, io, dev := t.rangeCost(w.base, hi)
			w.base += t.plan.Threads * t.cfg.Chunk
			w.mem, w.io, w.iodev = b, io, dev
			w.state = wMemory
			return cpusched.ReqCompute(c), true
		case wDispatch:
			// Zero overhead yields a zero-demand request the scheduler
			// skips.
			w.state = wClaim
			return cpusched.ReqCompute(float64(t.cfg.DispatchOverhead) * t.cyclesPerNs), true
		case wClaim:
			// The claim runs at the fetch following the dispatch compute.
			l := &t.loop
			lo := l.next
			if lo >= l.n {
				w.state = wEndBar
				continue
			}
			hi := lo + t.claimSize(lo)
			if hi > l.n {
				hi = l.n
			}
			l.next = hi
			c, b, io, dev := t.rangeCost(lo, hi)
			w.mem, w.io, w.iodev = b, io, dev
			w.state = wMemory
			return cpusched.ReqCompute(c), true
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
func (t *Team) claimSize(lo int) int {
	minChunk := t.cfg.Chunk
	if minChunk <= 0 {
		minChunk = 1
	}
	if t.cfg.Schedule == Dynamic {
		return minChunk
	}
	T := t.plan.Threads
	size := (t.loop.n - lo + 2*T - 1) / (2 * T)
	if size < minChunk {
		size = minChunk
	}
	return size
}

// rangeCost sums and scales the cost of iterations [lo, hi).
func (t *Team) rangeCost(lo, hi int) (cycles, bytes, ioBytes float64, ioDev string) {
	var total parmodel.Cost
	for i := lo; i < hi; i++ {
		total = total.Add(t.loop.cost(i))
	}
	total = total.Scale(t.cfg.CostFactor)
	return total.Cycles, total.Bytes, total.IOBytes, total.IODev
}

// device resolves a workload-referenced device name on the scheduler.
func (t *Team) device(name string) *cpusched.Device {
	d := t.s.Device(name)
	if d == nil {
		panic(fmt.Sprintf("omprt: workload references unregistered device %q", name))
	}
	return d
}

// workerNames caches the recurring per-thread names: teams are rebuilt
// every rep, and re-formatting identical names each time is measurable in
// batched series.
var workerNames = func() (s [64]string) {
	for i := range s {
		s[i] = fmt.Sprintf("omp-worker-%d", i)
	}
	return
}()

func workerName(i int) string {
	if i >= 0 && i < len(workerNames) {
		return workerNames[i]
	}
	return fmt.Sprintf("omp-worker-%d", i)
}
