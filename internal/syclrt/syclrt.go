// Package syclrt models a SYCL (DPC++-style) runtime targeting the CPU: a
// host thread submits kernels to an in-order queue; a worker pool executes
// each kernel's ND-range as work-groups claimed dynamically (work-stealing
// flavour). The model carries the overheads the paper attributes to SYCL's
// runtime layer — per-kernel submission cost, per-work-group dispatch cost,
// and a code-generation efficiency factor — which make SYCL slower in raw
// time but *more resilient* to injected noise: a worker delayed by noise
// simply executes fewer work-groups while the rest of the pool absorbs its
// share, instead of holding a static-schedule barrier hostage.
package syclrt

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

// Config tunes the runtime model.
type Config struct {
	// SubmitOverhead is host-side work per kernel submission (queue entry,
	// dependency tracking, handler construction).
	SubmitOverhead sim.Time
	// WGDispatch is per-work-group claim cost on a worker.
	WGDispatch sim.Time
	// WGUnits is how many work units form one work-group (claim
	// granularity); minimum 1.
	WGUnits int
	// CostFactor scales unit cost (kernel codegen efficiency vs OpenMP).
	CostFactor float64
	// ActiveWait spins workers between work-groups of an active kernel;
	// the pool parks passively between kernels either way.
	ActiveWait bool
	// Policy is the scheduling class pool threads (host and workers) are
	// spawned with; the zero value is SCHED_OTHER. PolicyDeadline
	// additionally needs the per-thread CBS reservation below — the
	// deadline-class mitigation runs every pool thread under EDF.
	Policy    cpusched.Policy
	DLRuntime sim.Time
	DLPeriod  sim.Time
}

// DefaultConfig returns the model constants used for the paper's SYCL runs.
func DefaultConfig() Config {
	return Config{
		SubmitOverhead: 35 * sim.Microsecond,
		WGDispatch:     400, // ns
		WGUnits:        1,
		CostFactor:     1.08,
		ActiveWait:     false,
	}
}

type kernel struct {
	n    int
	cost func(int) parmodel.Cost
	next int // work-group claim cursor
}

// Queue is the SYCL in-order queue plus its worker pool.
type Queue struct {
	s    *cpusched.Scheduler
	plan *mitigate.Plan
	cfg  Config

	kernelBar *cpusched.Barrier // host+workers rendezvous to start a kernel
	doneBar   *cpusched.Barrier // host+workers rendezvous at kernel end
	kern      kernel
	stop      bool
	// kernels counts submissions for obs span naming (only advanced while
	// an observer is attached).
	kernels int

	cyclesPerNs float64

	host    *cpusched.Task
	workers []*cpusched.Task
}

// Start records body (parmodel.Record) and creates the queue's worker pool
// and host thread, all scheduler Programs; the host executes the recorded
// phases. The host participates in kernel execution as one of the workers
// (CPU backends do this), so the pool size equals the plan's thread count.
func Start(s *cpusched.Scheduler, plan *mitigate.Plan, cfg Config, body parmodel.Body) *Queue {
	if cfg.CostFactor <= 0 {
		cfg.CostFactor = 1.0
	}
	if cfg.WGUnits <= 0 {
		cfg.WGUnits = 1
	}
	phases := parmodel.Record(body, plan.Threads, "sycl")
	q := &Queue{
		s:           s,
		plan:        plan,
		cfg:         cfg,
		kernelBar:   cpusched.NewBarrier(plan.Threads),
		doneBar:     cpusched.NewBarrier(plan.Threads),
		cyclesPerNs: s.Topology().CyclesPerNs(),
	}
	for i := 1; i < plan.Threads; i++ {
		q.workers = append(q.workers, s.SpawnProgram(q.spec(i, workerName(i)), &poolProgram{q: q}))
	}
	q.host = s.SpawnProgram(q.spec(0, "sycl-host"),
		&hostProgram{q: q, phases: phases, share: poolProgram{q: q}})
	return q
}

func (q *Queue) spec(thread int, name string) cpusched.TaskSpec {
	return cpusched.TaskSpec{
		Name:      name,
		Kind:      cpusched.KindWorkload,
		Affinity:  q.plan.AffinityOf(thread),
		Policy:    q.cfg.Policy,
		DLRuntime: q.cfg.DLRuntime,
		DLPeriod:  q.cfg.DLPeriod,
	}
}

// Host returns the host task (the workload's completion handle).
func (q *Queue) Host() *cpusched.Task { return q.host }

// hostProgram is the host thread: it executes the recorded phases in
// order. A ParallelFor submits one kernel and waits for it (an in-order
// queue with an immediately-consumed event, the pattern the benchmarks
// use): SubmitOverhead of host-side work, then the host joins execution
// through the same poolProgram walk the workers run (kernel barrier,
// work-groups, done barrier). A one-thread pool's barriers release on
// arrival, so it needs no special case. After the last phase the host
// raises stop and arrives at the kernel barrier once more, releasing the
// parked workers to exit.
type hostProgram struct {
	q        *Queue
	phases   []parmodel.Phase
	pc       int
	share    poolProgram // the host's part of the current kernel
	inKernel bool
	// spanOpen marks a kernel whose obs span closes at the fetch after its
	// done barrier; submitStart is its submission instant.
	spanOpen    bool
	submitStart sim.Time
}

func (h *hostProgram) Next(task *cpusched.Task) (cpusched.Request, bool) {
	q := h.q
	if h.inKernel {
		r, _ := h.share.Next(task) // never ends: stop is only raised below
		h.inKernel = h.share.state != pKernelBar
		return r, true
	}
	if h.spanOpen {
		// Observability only reads the clock: the span steals no time.
		h.spanOpen = false
		q.s.Observer().Span(task.CPU(), fmt.Sprintf("kernel-%d", q.kernels),
			"sycl", "in-order", h.submitStart, q.s.Now())
	}
	if h.pc == len(h.phases) {
		if q.stop {
			return cpusched.Request{}, false
		}
		q.stop = true
		return cpusched.ReqBarrier(q.kernelBar, false), true
	}
	p := &h.phases[h.pc]
	h.pc++
	switch p.Kind {
	case parmodel.PhaseParallelFor:
		q.kern = kernel{n: p.N, cost: p.Cost}
		if q.s.Observer() != nil {
			h.spanOpen, h.submitStart = true, q.s.Now()
			q.kernels++
		}
		h.inKernel = true
		return cpusched.ReqCompute(float64(q.cfg.SubmitOverhead) * q.cyclesPerNs), true
	case parmodel.PhaseCompute:
		return cpusched.ReqCompute(p.Amount * q.cfg.CostFactor), true
	case parmodel.PhaseMemory:
		return cpusched.ReqMemory(p.Amount * q.cfg.CostFactor), true
	default: // parmodel.PhaseBlockOn; I/O volume is data, CostFactor does not apply
		return cpusched.ReqBlockOn(q.device(p.Dev), p.Amount), true
	}
}

// poolProgram is one pool thread's part of every kernel: park at the
// kernel barrier, claim and execute work-groups from the shared cursor,
// rendezvous at the done barrier, repeat. Workers run it directly; the host
// runs it inside each kernel. Claims run inside Next, at the simulated
// instants the scheduler fetches each thread's next request, so
// work-group distribution resolves in fetch order.
type poolProgram struct {
	q     *Queue
	state int
	mem   float64 // memory half of the work-group whose compute was yielded
	io    float64 // I/O bytes of the work-group (0 = no blocking phase)
	iodev string  // device the I/O phase blocks on
}

const (
	pKernelBar = iota // arrive at the kernel start barrier
	pBegin            // released: check stop, begin claiming
	pDispatch         // yield the per-work-group dispatch cost
	pClaim            // claim a work-group, yield its compute
	pMemory           // yield the memory half of the current work-group
	pIO               // block on the work-group's device request (io > 0 only)
	pDoneBar          // arrive at the kernel end barrier
)

func (p *poolProgram) Next(*cpusched.Task) (cpusched.Request, bool) {
	q := p.q
	for {
		switch p.state {
		case pKernelBar:
			p.state = pBegin
			return cpusched.ReqBarrier(q.kernelBar, false), true
		case pBegin:
			if q.stop {
				return cpusched.Request{}, false
			}
			p.state = pDispatch
		case pDispatch:
			// Zero dispatch cost yields a zero-demand request the
			// scheduler skips.
			p.state = pClaim
			return cpusched.ReqCompute(float64(q.cfg.WGDispatch) * q.cyclesPerNs), true
		case pClaim:
			k := &q.kern
			lo := k.next
			if lo >= k.n {
				p.state = pDoneBar
				continue
			}
			hi := lo + q.cfg.WGUnits
			if hi > k.n {
				hi = k.n
			}
			k.next = hi
			c, b, io, dev := q.groupCost(lo, hi)
			p.mem, p.io, p.iodev = b, io, dev
			p.state = pMemory
			return cpusched.ReqCompute(c), true
		case pMemory:
			b := p.mem
			p.mem = 0
			if p.io > 0 {
				p.state = pIO
			} else {
				p.state = pDispatch
			}
			return cpusched.ReqMemory(b), true
		case pIO:
			io, dev := p.io, p.iodev
			p.io, p.iodev = 0, ""
			p.state = pDispatch
			return cpusched.ReqBlockOn(q.device(dev), io), true
		case pDoneBar:
			p.state = pKernelBar
			return cpusched.ReqBarrier(q.doneBar, q.cfg.ActiveWait), true
		}
	}
}

// groupCost sums and scales the cost of work units [lo, hi).
func (q *Queue) groupCost(lo, hi int) (cycles, bytes, ioBytes float64, ioDev string) {
	var total parmodel.Cost
	for i := lo; i < hi; i++ {
		total = total.Add(q.kern.cost(i))
	}
	total = total.Scale(q.cfg.CostFactor)
	return total.Cycles, total.Bytes, total.IOBytes, total.IODev
}

// device resolves a workload-referenced device name on the scheduler.
func (q *Queue) device(name string) *cpusched.Device {
	d := q.s.Device(name)
	if d == nil {
		panic(fmt.Sprintf("syclrt: workload references unregistered device %q", name))
	}
	return d
}

// workerNames caches the recurring per-thread names: queues are rebuilt
// every rep, and re-formatting identical names each time is measurable in
// batched series.
var workerNames = func() (s [64]string) {
	for i := range s {
		s[i] = fmt.Sprintf("sycl-worker-%d", i)
	}
	return
}()

func workerName(i int) string {
	if i >= 0 && i < len(workerNames) {
		return workerNames[i]
	}
	return fmt.Sprintf("sycl-worker-%d", i)
}
