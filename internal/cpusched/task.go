package cpusched

import (
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TaskState is the lifecycle state of a task.
type TaskState int

const (
	// StateNew means the task body has not run yet.
	StateNew TaskState = iota
	// StateRunnable means the task is queued on a CPU.
	StateRunnable
	// StateRunning means the task currently occupies a CPU.
	StateRunning
	// StateSleeping means the task waits on a timer.
	StateSleeping
	// StateBlocked means the task waits on a barrier.
	StateBlocked
	// StateBlockedIO means the task waits on a device request; the
	// device's completion interrupt wakes it (see device.go).
	StateBlockedIO
	// StateThrottled means a deadline-class task exhausted its CBS budget
	// and waits for replenishment at its deadline (see deadline.go).
	StateThrottled
	// StateDone means the task body returned or the task was killed.
	StateDone
)

type segKind int

const (
	segNone segKind = iota // no current segment: next request must be fetched
	segCompute
	segMemory
	segSpin // busy-wait with unbounded demand (spinning barrier wait)
)

type reqKind int

const (
	reqCompute reqKind = iota
	reqMemory
	reqSleepUntil
	reqSleepFor // relative sleep, resolved to reqSleepUntil at fetch time
	reqBarrier
	reqSetPolicy
	reqBlockOn // block on a device request until its completion IRQ
	reqDone
)

type request struct {
	kind   reqKind
	demand float64  // cycles or bytes (reqBlockOn: request size in bytes)
	until  sim.Time // reqSleepUntil; duration for reqSleepFor
	bar    *Barrier // reqBarrier
	dev    *Device  // reqBlockOn
	spin   bool     // reqBarrier: spin instead of blocking
	policy Policy   // reqSetPolicy
	rtprio int      // reqSetPolicy
	nice   int      // reqSetPolicy
}

// Request is one scheduling request yielded by a Program. Construct values
// with the Req* helpers; the zero value is invalid.
type Request struct {
	req request
}

// ReqCompute executes work costing the given number of CPU cycles.
// Non-positive cycle counts are skipped by the scheduler.
func ReqCompute(cycles float64) Request {
	return Request{request{kind: reqCompute, demand: cycles}}
}

// ReqMemory streams the given number of bytes through the memory system,
// sharing machine bandwidth with concurrent streams; non-positive volumes
// are skipped.
func ReqMemory(bytes float64) Request {
	return Request{request{kind: reqMemory, demand: bytes}}
}

// ReqSleepUntil blocks the task (releasing its CPU) until simulated time
// at; an instant in the past passes no time.
func ReqSleepUntil(at sim.Time) Request {
	return Request{request{kind: reqSleepUntil, until: at}}
}

// ReqSleep sleeps for d nanoseconds from the simulated instant the request
// is fetched.
func ReqSleep(d sim.Time) Request {
	return Request{request{kind: reqSleepFor, until: d}}
}

// ReqBarrier waits at b. With spin=true the task busy-waits, consuming its
// CPU until release (OpenMP-style active wait); with spin=false it blocks
// and releases the CPU.
func ReqBarrier(b *Barrier, spin bool) Request {
	return Request{request{kind: reqBarrier, bar: b, spin: spin}}
}

// ReqSetPolicy switches the task's scheduling class and niceness together
// (SCHED_OTHER tasks only use nice; FIFO tasks only use rtprio); it takes
// no simulated time.
func ReqSetPolicy(p Policy, rtprio, nice int) Request {
	return Request{request{kind: reqSetPolicy, policy: p, rtprio: rtprio, nice: nice}}
}

// ReqBlockOn blocks the task on a request of the given size to the device
// until the device's completion interrupt wakes it. Unlike compute and
// memory requests, a zero-byte request still blocks: the device charges
// its fixed latency (an fsync barrier is exactly that). The device must be
// registered on the scheduler (AddDevice) before the request is processed.
func ReqBlockOn(d *Device, bytes float64) Request {
	return Request{request{kind: reqBlockOn, dev: d, demand: bytes}}
}

// Program is a task body: a resumable state machine that yields one
// Request at a time. The scheduler calls Next directly on the engine thread
// whenever the task must produce its next request, at the simulated instant
// the previous request completed; Next returning ok=false ends the task.
// Zero-demand compute/memory requests are skipped. Next may read
// simulation state (the clock, t.CPU(), registered devices) but must not
// change it through Engine or Scheduler methods.
type Program interface {
	Next(t *Task) (Request, bool)
}

// seqProgram replays a fixed request list — sufficient for most noise
// tasks.
type seqProgram struct {
	reqs []Request
	pc   int
}

func (p *seqProgram) Next(*Task) (Request, bool) {
	if p.pc >= len(p.reqs) {
		return Request{}, false
	}
	r := p.reqs[p.pc]
	p.pc++
	return r, true
}

// oneReqProgram issues a single request and exits — the dominant noise
// shape (one compute burst). Keeping it slice-free lets SpawnSeq's
// single-request case spawn with one allocation.
type oneReqProgram struct {
	req  Request
	done bool
}

func (p *oneReqProgram) Next(*Task) (Request, bool) {
	if p.done {
		return Request{}, false
	}
	p.done = true
	return p.req, true
}

type segment struct {
	kind segKind
}

// TaskSpec describes a task to spawn.
type TaskSpec struct {
	// Name identifies the task in logs and stats.
	Name string
	// Source is the tracer source label, e.g. "kworker/3:1". Defaults to
	// Name when empty.
	Source string
	// Kind classifies the task for tracing.
	Kind Kind
	// Policy and RTPrio select the scheduling class. RTPrio only matters
	// for PolicyFIFO; higher preempts lower.
	Policy Policy
	RTPrio int
	// Nice is the fair-class niceness (-20..19, lower = heavier weight).
	Nice int
	// DLRuntime/DLPeriod are the PolicyDeadline CBS reservation: DLRuntime
	// of CPU per DLPeriod, with the (implicit) relative deadline equal to
	// the period. Required for PolicyDeadline, ignored otherwise.
	DLRuntime sim.Time
	DLPeriod  sim.Time
	// Affinity restricts the task to a CPU set; the zero value means all
	// CPUs of the machine.
	Affinity machine.CPUSet
}

// Task is a schedulable thread of execution.
type Task struct {
	ID     int
	Name   string
	Source string
	Kind   Kind

	policy   Policy
	rtprio   int
	nice     int
	affinity machine.CPUSet

	state TaskState
	cpu   int // current or last CPU, -1 before first dispatch
	// lastRunCPU is the CPU the task last executed on, for migration cost.
	lastRunCPU int

	sched *Scheduler
	prog  Program

	seg          segment
	remaining    float64
	rate         float64
	lastAccount  sim.Time
	runStart     sim.Time
	streamActive bool

	vruntime   float64
	enqueueSeq uint64
	// qIndex is the task's position in its CPU's run-queue heap, -1 when
	// not queued. arrivalSeq is bumped on every queue append (enqueue and
	// requeue); the balancer uses it to recover the old slice insertion
	// order when picking a migration victim.
	qIndex     int
	arrivalSeq uint64

	// completion is the segment-completion timer of a compute segment. A
	// memory segment's completion lives in the scheduler's stream group
	// instead, at slot memIdx (-1 when not a member).
	completion *sim.Timer
	memIdx     int
	// memEpoch is the scheduler's memEpoch when the task's member key was
	// last set (see flushMemStreams).
	memEpoch  uint64
	wakeTimer *sim.Timer
	// segDoneFn and wakeFn are the completion/wake timer callbacks, bound
	// once at spawn so re-arming a timer does not allocate a new closure
	// per segment or sleep.
	segDoneFn func()
	wakeFn    func()
	bar       *Barrier
	// barArrive is the simulated instant the task arrived at bar, recorded
	// only while an obs recorder is attached (it feeds barrier-wait spans).
	barArrive sim.Time
	// dev is the device the task is blocked on (StateBlockedIO); ioArrive
	// is the submission instant, recorded only while an obs recorder is
	// attached (it feeds io-wait spans).
	dev      *Device
	ioArrive sim.Time

	// SCHED_DEADLINE (CBS) state: the static reservation, the current
	// absolute deadline and remaining budget, the budget-exhaustion and
	// replenishment timers, and their callbacks (bound once at allocation,
	// like segDoneFn/wakeFn).
	dlRuntime     sim.Time
	dlPeriod      sim.Time
	dlDeadline    sim.Time
	dlBudget      sim.Time
	dlBudgetTimer *sim.Timer
	dlReplTimer   *sim.Timer
	dlBudgetFn    func()
	dlReplFn      func()
	// pendingReq holds a fetched-but-unprocessed request when the task
	// lost its CPU mid-processing (e.g. preempted by a task woken from a
	// barrier it just released); it is consumed at the next dispatch.
	// Stored by value (hasPending marks occupancy) so stashing does not
	// allocate.
	pendingReq request
	hasPending bool

	onDone []func()

	// Statistics.
	CPUTime    sim.Time
	Migrations int
	Preempted  int
}

// recycle strips a finished task for pooled reuse, keeping
// only the identity-bound pieces: the scheduler pointer and the two timer
// callbacks, which close over the task pointer itself and so remain valid
// across reuse. Everything else resets to the state a fresh struct would
// have after newTask's common field assignments.
func (t *Task) recycle() {
	sched, segDone, wake := t.sched, t.segDoneFn, t.wakeFn
	dlBudget, dlRepl := t.dlBudgetFn, t.dlReplFn
	*t = Task{
		sched:      sched,
		segDoneFn:  segDone,
		wakeFn:     wake,
		dlBudgetFn: dlBudget,
		dlReplFn:   dlRepl,
		cpu:        -1,
		lastRunCPU: -1,
		qIndex:     -1,
		memIdx:     -1,
	}
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// Done reports whether the task has finished (or was killed).
func (t *Task) Done() bool { return t.state == StateDone }

// CPU returns the task's current (or most recent) CPU, -1 if never run.
func (t *Task) CPU() int { return t.cpu }

// Policy returns the task's scheduling policy.
func (t *Task) Policy() Policy { return t.policy }

// OnDone registers fn to run (on the engine thread) when the task finishes.
func (t *Task) OnDone(fn func()) { t.onDone = append(t.onDone, fn) }

func (t *Task) weight() float64 {
	// 1024 at nice 0, ~+25% CPU per nice step down, as in CFS.
	return 1024 * math.Pow(1.25, -float64(t.nice))
}
