package cpusched

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options tunes scheduler behaviour. The zero value is usable; Defaults
// fills in Linux-flavoured values.
type Options struct {
	// Slice is the fair-class timeslice before round-robin rotation.
	Slice sim.Time
	// WakeupGranularity damps wakeup preemption between fair tasks.
	WakeupGranularity sim.Time
	// MigrationCost is the cache-warmup penalty charged when a task
	// resumes on a different CPU, expressed as nanoseconds of extra work.
	MigrationCost sim.Time
	// BalanceInterval is the period of idle load balancing; 0 disables it.
	BalanceInterval sim.Time
	// RTThrottle enables the Linux RT fail-safe limiting FIFO tasks to
	// RTRuntime per RTPeriod per CPU. The paper's injector disables it.
	RTThrottle bool
	RTRuntime  sim.Time
	RTPeriod   sim.Time
	// TraceOverhead is CPU time stolen from the interrupted CPU per
	// recorded trace event when a tracer is attached (Table 1).
	TraceOverhead sim.Time
}

// Defaults returns Linux-flavoured scheduler options.
func Defaults() Options {
	return Options{
		Slice:             3 * sim.Millisecond,
		WakeupGranularity: 1 * sim.Millisecond,
		MigrationCost:     20 * sim.Microsecond,
		BalanceInterval:   4 * sim.Millisecond,
		RTThrottle:        false,
		RTRuntime:         950 * sim.Millisecond,
		RTPeriod:          1000 * sim.Millisecond,
		TraceOverhead:     1500, // ns per recorded event (ring-buffer write + clock reads)
	}
}

// Hook receives scheduling events, e.g. for the osnoise-style tracer.
type Hook interface {
	// TaskRan reports that task t occupied cpu for [start, end).
	TaskRan(cpu int, t *Task, start, end sim.Time)
	// IRQRan reports an interrupt occupying cpu for [start, end).
	IRQRan(cpu int, class NoiseClass, source string, start, end sim.Time)
}

type pendingIRQ struct {
	class  NoiseClass
	source string
	dur    sim.Time
	// wake, when non-nil, is a task blocked on a device request that this
	// (completion) interrupt wakes at the end of its handler.
	wake *Task
}

type cpuState struct {
	id   int
	curr *Task
	dl   taskQueue // runnable deadline tasks, keyed (deadline, enqueueSeq)
	fifo taskQueue // runnable FIFO tasks, keyed (rtprio desc, enqueueSeq)
	fair taskQueue // runnable fair tasks, keyed (vruntime, enqueueSeq)

	minVruntime float64

	inIRQ    bool
	irqStart sim.Time
	// irqClass/irqSource identify the in-flight interrupt; irqEndFn is its
	// completion callback, bound once at construction so interrupt delivery
	// does not allocate a closure per event.
	irqClass  NoiseClass
	irqSource string
	irqEndFn  func()
	// irqWake is the device-blocked task the in-flight completion
	// interrupt wakes when its handler ends (nil for plain noise IRQs).
	irqWake *Task
	// irqQ is the pending-interrupt queue: appended at the tail, consumed
	// via irqHead so the backing array survives each burst intact.
	irqQ    []pendingIRQ
	irqHead int

	// pendingSteal is accumulated tracing overhead not yet charged to a
	// running task on this CPU.
	pendingSteal sim.Time

	sliceTimer *sim.Timer
	// sliceFn is the slice-expiry callback, bound once at construction so
	// re-arming the timeslice does not allocate a closure per dispatch.
	sliceFn func()

	// RT throttling state.
	rtWindowStart sim.Time
	rtUsed        sim.Time
	rtThrottled   bool
	throttleTimer *sim.Timer
}

func (c *cpuState) queued() int { return c.dl.len() + c.fifo.len() + c.fair.len() }

func (c *cpuState) idle() bool { return c.curr == nil && c.queued() == 0 }

// Scheduler simulates the OS CPU scheduler for one machine.
type Scheduler struct {
	eng   *sim.Engine
	topo  *machine.Topology
	opt   Options
	cpus  []*cpuState
	tasks []*Task

	// devices are the registered I/O devices, by name. Per-rep state:
	// Reset clears the map (each rep re-registers in its body).
	devices map[string]*Device

	tracer Hook
	// obs is the passive observability recorder. Unlike the tracer it
	// steals no simulated time: attaching it cannot change any scheduling
	// decision or timestamp. Every emission site is nil-guarded so the
	// disabled path costs one pointer compare and allocates nothing.
	obs *obs.Recorder

	// memStreams counts the tasks streaming memory; memCPUs holds the CPUs
	// they are current on, and memRate caches topo.MemRate(memStreams), the
	// per-stream bandwidth every one of them runs at.
	memStreams int
	memCPUs    machine.CPUSet
	memRate    float64
	// irqCPUs mirrors the CPUs in interrupt context (inIRQ) and stealCPUs
	// those with tracing overhead not yet charged (pendingSteal > 0).
	// dueCPUs holds the CPUs whose current task is a stream-group member
	// keyed to complete at the instant it was keyed, that is, due now;
	// staleDue those of them a pending flush has yet to re-key. With them
	// a walk is deferred without visiting CPUs.
	irqCPUs   machine.CPUSet
	stealCPUs machine.CPUSet
	dueCPUs   machine.CPUSet
	staleDue  machine.CPUSet
	// walkAt is the instant of the last full stream walk (-1 before the
	// first). memEpoch advances at every deferred walk; a member whose
	// memEpoch is older than the scheduler's has not been re-keyed since
	// the last deferred walk. flush is that walk's pending re-key, run by
	// flushFn before the clock moves; flushHooked is set while flushFn is
	// registered with the engine.
	walkAt      sim.Time
	memEpoch    uint64
	flush       memFlush
	flushFn     func()
	flushHooked bool
	// MemRerates counts stream-group member re-rates: the tasks a full
	// stream walk refreshes plus the members a flush re-keys.
	MemRerates uint64
	nextID     int
	seq        uint64
	arrival    uint64
	liveTasks  int

	// memGroup is the stream group: the completion key of every running
	// memory-segment task whose rate is above 0, each held at the slot its
	// task's memIdx names. memTimer is the one engine timer behind them,
	// keyed to the earliest member; memHold defers re-arming it while a
	// batch of member changes is in flight, and memFireFn is its callback,
	// bound once. See armMemGroup.
	memGroup  []memMember
	memTimer  *sim.Timer
	memHold   int
	memFireFn func()

	balanceTimer *sim.Timer
	// balanceFn is the balancer callback, bound once so re-arming the
	// periodic timer does not allocate a method-value closure per tick.
	balanceFn func()

	// barScratch pools the waiter-classification buffers of barrierArrive.
	// It is a free stack, not a single buffer, because barrier releases
	// nest (a released spinner may immediately arrive at, and release,
	// another barrier from within processRequests).
	barScratch []*barrierScratch

	// taskPool recycles finished tasks across Reset cycles: a Program task
	// holds no state outside its struct, so it is quiescent the moment it
	// is done. TaskAllocs counts Task structs allocated because the pool
	// was empty: the scheduler's pool misses.
	taskPool   []*Task
	TaskAllocs uint64

	// kindTime accumulates CPU time per logical CPU per task kind, for
	// attribution analyses (e.g. how much injected noise a housekeeping
	// core absorbed). Indexed [cpu][kind].
	kindTime [][4]sim.Time

	// ContextSwitches counts dispatches, for diagnostics.
	ContextSwitches uint64
	// Requests counts the requests task Programs returned (empty demands
	// excluded).
	Requests uint64
}

// New creates a scheduler for the given machine.
func New(eng *sim.Engine, topo *machine.Topology, opt Options) *Scheduler {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	s := &Scheduler{eng: eng, topo: topo, opt: opt, memRate: topo.MemRate(0), walkAt: -1}
	s.balanceFn = s.balanceTick
	s.memFireFn = s.memFire
	s.flushFn = s.flushMemStreams
	n := topo.NumCPUs()
	s.cpus = make([]*cpuState, n)
	for i := range s.cpus {
		c := &cpuState{id: i}
		c.dl.less = dlLess
		c.fifo.less = fifoLess
		c.fair.less = fairLess
		c.sliceFn = func() { s.sliceExpire(c) }
		c.irqEndFn = func() { s.endIRQ(c) }
		s.cpus[i] = c
	}
	s.kindTime = make([][4]sim.Time, n)
	return s
}

// CPUTimeOf returns the accumulated CPU time of tasks of the given kind on
// one logical CPU.
func (s *Scheduler) CPUTimeOf(cpu int, kind Kind) sim.Time {
	if cpu < 0 || cpu >= len(s.kindTime) || kind < 0 || int(kind) >= 4 {
		return 0
	}
	return s.kindTime[cpu][kind]
}

// Engine returns the underlying simulation engine.
func (s *Scheduler) Engine() *sim.Engine { return s.eng }

// Topology returns the machine topology.
func (s *Scheduler) Topology() *machine.Topology { return s.topo }

// Now returns the current simulated time.
func (s *Scheduler) Now() sim.Time { return s.eng.Now() }

// SetTracer attaches a tracing hook. Recorded events steal
// Options.TraceOverhead of CPU time from the affected CPU, modelling the
// tracing overhead the paper quantifies in Table 1.
func (s *Scheduler) SetTracer(h Hook) { s.tracer = h }

// SetObserver attaches a passive observability recorder. It records
// scheduling spans and instants in simulated time without stealing any
// (contrast SetTracer), so a run is byte-identical with or without it.
func (s *Scheduler) SetObserver(r *obs.Recorder) { s.obs = r }

// Observer returns the attached recorder, nil when observability is off.
// The runtime model (parmodel) emits its region/kernel spans through it.
func (s *Scheduler) Observer() *obs.Recorder { return s.obs }

// TotalPreemptions sums involuntary context switches over all tasks.
func (s *Scheduler) TotalPreemptions() uint64 {
	var n uint64
	for _, t := range s.tasks {
		n += uint64(t.Preempted)
	}
	return n
}

// TotalMigrations sums cross-CPU migrations over all tasks.
func (s *Scheduler) TotalMigrations() uint64 {
	var n uint64
	for _, t := range s.tasks {
		n += uint64(t.Migrations)
	}
	return n
}

// Tasks returns all spawned tasks.
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// SpawnProgram creates a task whose body is prog and makes it runnable
// immediately: the scheduler pulls requests from prog.Next directly on the
// engine thread.
func (s *Scheduler) SpawnProgram(spec TaskSpec, prog Program) *Task {
	if prog == nil {
		panic("cpusched: SpawnProgram with nil program")
	}
	t := s.newTask(spec)
	t.prog = prog
	s.start(t)
	return t
}

// SpawnSeq creates a task that issues a fixed request sequence and exits —
// the common shape of noise threads and injector processes.
func (s *Scheduler) SpawnSeq(spec TaskSpec, reqs ...Request) *Task {
	if len(reqs) == 1 {
		return s.SpawnProgram(spec, &oneReqProgram{req: reqs[0]})
	}
	return s.SpawnProgram(spec, &seqProgram{reqs: reqs})
}

// newTask builds a task record, reusing a pooled one when available.
func (s *Scheduler) newTask(spec TaskSpec) *Task {
	if spec.Policy == PolicyDeadline &&
		(spec.DLRuntime <= 0 || spec.DLPeriod < spec.DLRuntime) {
		panic(fmt.Sprintf("cpusched: task %q: SCHED_DEADLINE needs 0 < DLRuntime <= DLPeriod (got runtime=%d period=%d)",
			spec.Name, spec.DLRuntime, spec.DLPeriod))
	}
	aff := spec.Affinity.And(machine.AllCPUs(s.topo.NumCPUs()))
	if aff.Empty() {
		aff = machine.AllCPUs(s.topo.NumCPUs())
	}
	src := spec.Source
	if src == "" {
		src = spec.Name
	}
	s.nextID++
	var t *Task
	if n := len(s.taskPool); n > 0 {
		t = s.taskPool[n-1]
		s.taskPool[n-1] = nil
		s.taskPool = s.taskPool[:n-1]
	} else {
		t = &Task{sched: s}
		// Bound once per struct: the callbacks close over the task pointer,
		// so a pooled task carries them across Reset cycles.
		t.segDoneFn = func() { s.onSegmentDone(t) }
		t.wakeFn = func() {
			t.wakeTimer = nil
			s.wake(t)
		}
		t.dlBudgetFn = func() { s.dlBudgetFire(t) }
		t.dlReplFn = func() {
			t.dlReplTimer = nil
			s.dlReplenish(t)
		}
		s.TaskAllocs++
	}
	t.ID = s.nextID
	t.Name = spec.Name
	t.Source = src
	t.Kind = spec.Kind
	t.policy = spec.Policy
	t.rtprio = spec.RTPrio
	t.nice = spec.Nice
	t.dlRuntime = spec.DLRuntime
	t.dlPeriod = spec.DLPeriod
	t.affinity = aff
	t.state = StateNew
	t.cpu = -1
	t.lastRunCPU = -1
	t.qIndex = -1
	t.memIdx = -1
	t.seg = segment{kind: segNone}
	return t
}

// start registers a freshly built task and makes it runnable.
func (s *Scheduler) start(t *Task) {
	s.tasks = append(s.tasks, t)
	s.liveTasks++
	if s.opt.BalanceInterval > 0 && s.balanceTimer == nil {
		s.balanceTimer = s.eng.After(s.opt.BalanceInterval, s.balanceFn)
	}
	s.wake(t)
}

// Kill forcefully terminates a task; its Program is never advanced again.
func (s *Scheduler) Kill(t *Task) {
	if t.state == StateDone {
		return
	}
	if t.bar != nil {
		t.bar.drop(t)
		t.bar = nil
	}
	if t.dev != nil {
		t.dev.drop(t)
		t.dev = nil
	}
	if t.state == StateRunning {
		s.undispatch(t, StateDone)
		s.resched(s.cpus[t.cpu])
	} else {
		s.removeQueued(t)
		s.cancelTimers(t)
		t.state = StateDone
	}
	s.finishCallbacks(t)
}

// Shutdown kills every unfinished task (firing their OnDone callbacks and
// closing their trace records) and stops the balancer. Call it at the end
// of a simulation run.
func (s *Scheduler) Shutdown() {
	for _, t := range s.tasks {
		s.Kill(t)
	}
	if s.balanceTimer != nil {
		s.balanceTimer.Cancel()
		s.balanceTimer = nil
	}
}

func (s *Scheduler) finishCallbacks(t *Task) {
	s.liveTasks--
	cbs := t.onDone
	t.onDone = nil
	for _, fn := range cbs {
		fn()
	}
}

// ---- request fetch ----

// fetchNext obtains the task's next request from its Program on the engine
// thread. Non-positive compute/memory demands are skipped, and relative
// sleeps resolve against the clock at fetch time.
func (s *Scheduler) fetchNext(t *Task) request {
	for {
		r, ok := t.prog.Next(t)
		if !ok {
			return request{kind: reqDone}
		}
		req := r.req
		switch req.kind {
		case reqCompute, reqMemory:
			if req.demand <= 0 {
				continue
			}
		case reqSleepFor:
			req.kind = reqSleepUntil
			req.until += s.eng.Now()
		}
		s.Requests++
		return req
	}
}

// ---- rate model and accounting ----

func (s *Scheduler) siblingBusy(cpu int) bool {
	sib := s.topo.Sibling(cpu)
	if sib < 0 {
		return false
	}
	c := s.cpus[sib]
	return c.curr != nil || c.inIRQ
}

// currentRate returns the progress rate (demand units per ns) of a running
// task on its CPU right now.
func (s *Scheduler) currentRate(t *Task) float64 {
	c := s.cpus[t.cpu]
	if c.inIRQ {
		return 0
	}
	switch t.seg.kind {
	case segCompute, segSpin:
		r := s.topo.CyclesPerNs()
		if s.siblingBusy(t.cpu) {
			r *= s.topo.SMTFactor
		}
		return r
	case segMemory:
		return s.memRate
	default:
		return 0
	}
}

// account charges elapsed running time against the task's remaining demand
// and its vruntime.
func (s *Scheduler) account(t *Task) {
	now := s.eng.Now()
	if t.state == StateRunning && now > t.lastAccount {
		el := now - t.lastAccount
		t.remaining -= float64(el) * t.rate
		t.CPUTime += el
		if t.cpu >= 0 && int(t.Kind) < 4 {
			s.kindTime[t.cpu][t.Kind] += el
		}
		switch t.policy {
		case PolicyOther:
			t.vruntime += float64(el) * 1024 / t.weight()
		case PolicyDeadline:
			t.dlBudget -= el
		case PolicyFIFO:
			if s.opt.RTThrottle {
				s.cpus[t.cpu].rtUsed += el
			}
		}
	}
	t.lastAccount = now
}

// refresh recomputes a running task's rate and (re)schedules its segment
// completion, folding in any pending tracing overhead on its CPU. A memory
// segment's completion is a stream-group member (setMember); any other
// segment's is the task's own timer, re-keyed in place (Timer.Reset) when
// it is pending. Either way the new key takes the next sequence number, as
// a fresh timer would.
func (s *Scheduler) refresh(t *Task) {
	if t.state != StateRunning {
		return
	}
	s.account(t)
	t.rate = s.currentRate(t)
	if t.seg.kind == segSpin || t.rate <= 0 {
		// Unbounded or paused: completes via external event.
		s.stopCompletion(t)
		return
	}
	if c := s.cpus[t.cpu]; c.pendingSteal > 0 {
		t.remaining += float64(c.pendingSteal) * t.rate
		c.pendingSteal = 0
		s.stealCPUs = s.stealCPUs.Clear(c.id)
	}
	at := s.completionAt(t)
	if t.seg.kind == segMemory {
		// A memory segment starts only after the previous segment's own
		// timer fired or was cancelled, so t.completion is nil here.
		s.setMember(t, at)
		return
	}
	// The task may still be a member: a memory segment that just completed
	// re-rates its own task before the next segment begins.
	s.dropMember(t)
	if t.completion.Pending() {
		t.completion.Reset(at)
	} else {
		t.completion = s.eng.At(at, t.segDoneFn)
	}
}

// completionAt is the instant a running task's segment completes at its
// current rate: the remaining demand rounded up to whole nanoseconds.
func (s *Scheduler) completionAt(t *Task) sim.Time {
	var d sim.Time
	if t.remaining > 0 {
		d = sim.Time(math.Ceil(t.remaining / t.rate))
	}
	return s.eng.Now() + d
}

// stopCompletion withdraws t's pending segment completion, wherever it is
// held.
func (s *Scheduler) stopCompletion(t *Task) {
	if t.completion != nil {
		t.completion.Cancel()
		t.completion = nil
	}
	s.dropMember(t)
}

func (s *Scheduler) cancelTimers(t *Task) {
	s.stopCompletion(t)
	if t.wakeTimer != nil {
		t.wakeTimer.Cancel()
		t.wakeTimer = nil
	}
	if t.dlBudgetTimer != nil {
		t.dlBudgetTimer.Cancel()
		t.dlBudgetTimer = nil
	}
	if t.dlReplTimer != nil {
		t.dlReplTimer.Cancel()
		t.dlReplTimer = nil
	}
}

// setStreamActive starts or stops t's memory stream, which changes the
// bandwidth share of every stream, and re-rates the tasks that hold one.
func (s *Scheduler) setStreamActive(t *Task, active bool) {
	if t.streamActive == active {
		return
	}
	t.streamActive = active
	if active {
		s.memStreams++
		s.memCPUs = s.memCPUs.Set(t.cpu)
	} else {
		s.memStreams--
	}
	s.memRate = s.topo.MemRate(s.memStreams)
	s.recalcMemStreams(t, active)
	if !active {
		// Cleared only after the walk: a task whose segment just completed
		// stops its stream while still current on the memory segment, and
		// it is re-rated with the others.
		s.memCPUs = s.memCPUs.Clear(t.cpu)
	}
}

// recalcMemStreams re-rates every current task on a memory segment after
// t started (active) or stopped its stream. The full walk refreshes them
// in ascending CPU order; only CPUs in memCPUs can hold one. It re-keys
// the stream group's timer once, after the last member moved.
//
// A walk at an instant that already had a full walk is deferred to one
// flush before the clock moves on (flushMemStreams). After that first
// walk every task the walk would refresh was accounted at this instant,
// so a later walk only gives each CPU in memCPUs outside interrupt
// context the rate memRate and the key (now + remaining/memRate, next
// sequence number), in CPU order. The deferred walk reserves those
// sequence numbers now and writes the keys later. Until then only the
// members due now can fire, and their keys follow from the reservation
// alone (see earliestMember). Tracing overhead owed on a streaming CPU
// forces the full walk, which folds it in at its place in the float sums.
// A full walk supersedes a pending flush.
func (s *Scheduler) recalcMemStreams(t *Task, active bool) {
	now := s.eng.Now()
	if s.walkAt == now && s.memCPUs.And(s.stealCPUs).Empty() {
		walk := s.memCPUs.Minus(s.irqCPUs)
		if !active && s.cpus[t.cpu].curr != t {
			// Undispatched: the CPU no longer holds the task, so the walk
			// skips it.
			walk = walk.Clear(t.cpu)
		}
		s.memEpoch++
		s.flush = memFlush{pending: true, cpus: walk, base: s.eng.ReserveSeqs(walk.Count())}
		if !s.flushHooked {
			s.flushHooked = true
			s.eng.BeforeAdvance(s.flushFn)
		}
		if s.staleDue = s.dueCPUs.And(walk); !s.staleDue.Empty() {
			// The group timer may hold a stale due member's old key.
			s.armMemGroup()
		}
		return
	}
	s.walkAt = now
	s.flush.pending = false
	s.staleDue = machine.CPUSet{}
	s.memHold++
	for cpu := s.memCPUs.First(); cpu >= 0; cpu = s.memCPUs.NextFrom(cpu + 1) {
		if c := s.cpus[cpu]; c.curr != nil && c.curr.seg.kind == segMemory {
			s.refresh(c.curr)
			s.MemRerates++
		}
	}
	s.memHold--
	s.armMemGroup()
}

// memFlush is a deferred stream walk: the CPUs it covers, in walk order,
// and the first of the sequence numbers it reserved, one per CPU.
type memFlush struct {
	pending bool
	cpus    machine.CPUSet
	base    uint64
}

// flushMemStreams completes the last deferred walk. Each member not
// re-keyed since gets what the walk would have given it, with the
// sequence number of its CPU's rank in the walk; then the group timer is
// re-armed once. It runs as the engine's BeforeAdvance hook, so the clock
// still reads the deferred walk's instant.
func (s *Scheduler) flushMemStreams() {
	s.flushHooked = false
	if !s.flush.pending {
		return
	}
	f := s.flush
	s.flush.pending = false
	s.staleDue = machine.CPUSet{}
	seq := f.base
	for cpu := f.cpus.First(); cpu >= 0; cpu = f.cpus.NextFrom(cpu + 1) {
		// Its task was accounted at this instant, so the walk's refresh
		// would do no more than this.
		if t := s.cpus[cpu].curr; t != nil && t.memIdx >= 0 && t.memEpoch < s.memEpoch {
			t.rate = s.memRate
			t.memEpoch = s.memEpoch
			s.memGroup[t.memIdx] = memMember{at: s.completionAt(t), seq: seq, t: t}
			s.MemRerates++
		}
		seq++
	}
	s.armMemGroup()
}

// ---- stream group ----
//
// Every memory-stream start or stop changes the bandwidth share of every
// stream, so it re-rates every streaming task. With one engine timer per
// task that is one heap re-key per streaming task; the stream group keeps
// those completions out of the heap and puts one timer there instead,
// keyed to the earliest member. A member's key is exactly the (time,
// sequence) its own timer would carry: it reserves the sequence number
// with NextSeq at the point At or Reset would have taken one, and the
// group timer takes the earliest key with AtKey/ResetKey, which reserve
// nothing. So the global sequence counter, every other event's key, and
// the order events pop in are what one timer per task gives, and a member
// completion is still one engine step.

// memMember is one stream-group member: a task's completion key.
type memMember struct {
	at  sim.Time
	seq uint64
	t   *Task
}

// setMember gives t's completion the key (at, next sequence number),
// adding t to the stream group if it is not a member yet.
func (s *Scheduler) setMember(t *Task, at sim.Time) {
	m := memMember{at: at, seq: s.eng.NextSeq(), t: t}
	t.memEpoch = s.memEpoch
	s.staleDue = s.staleDue.Clear(t.cpu)
	if at == s.eng.Now() {
		s.dueCPUs = s.dueCPUs.Set(t.cpu)
	} else {
		s.dueCPUs = s.dueCPUs.Clear(t.cpu)
	}
	if t.memIdx < 0 {
		t.memIdx = len(s.memGroup)
		s.memGroup = append(s.memGroup, m)
	} else {
		s.memGroup[t.memIdx] = m
	}
	s.armMemGroup()
}

// dropMember removes t from the stream group; the last member takes its
// slot.
func (s *Scheduler) dropMember(t *Task) {
	i := t.memIdx
	if i < 0 {
		return
	}
	s.dueCPUs = s.dueCPUs.Clear(t.cpu)
	s.staleDue = s.staleDue.Clear(t.cpu)
	n := len(s.memGroup) - 1
	last := s.memGroup[n]
	s.memGroup[i] = last
	last.t.memIdx = i
	s.memGroup[n] = memMember{}
	s.memGroup = s.memGroup[:n]
	t.memIdx = -1
	s.armMemGroup()
}

// earliestMember returns the slot and key of the member with the smallest
// key. Sequence numbers are unique, so the earliest member is too.
//
// While a flush is pending, the members it will re-key hold stale keys.
// Those due now (staleDue) complete now under any rate, so their keys are
// (now, first reserved sequence number + the CPU's rank in the deferred
// walk); every member keyed since took a later sequence number, and every
// other stale member completes after now. So the first stale due member
// in CPU order is the earliest. Without one, the smallest stored key is
// exact whenever a member is due now, and otherwise any key after now
// will do: the flush re-arms the group timer before the clock moves.
func (s *Scheduler) earliestMember() (int, sim.Time, uint64) {
	if cpu := s.staleDue.First(); cpu >= 0 {
		rank := s.flush.cpus.And(machine.AllCPUs(cpu)).Count()
		return s.cpus[cpu].curr.memIdx, s.eng.Now(), s.flush.base + uint64(rank)
	}
	best := 0
	for i := 1; i < len(s.memGroup); i++ {
		m, b := s.memGroup[i], s.memGroup[best]
		if m.at < b.at || (m.at == b.at && m.seq < b.seq) {
			best = i
		}
	}
	m := s.memGroup[best]
	return best, m.at, m.seq
}

// armMemGroup keys the group timer to the earliest member, or cancels it
// when the group is empty. Inside a memHold batch it does nothing: the
// batch re-arms once when it ends.
func (s *Scheduler) armMemGroup() {
	if s.memHold > 0 {
		return
	}
	if len(s.memGroup) == 0 {
		if s.memTimer != nil {
			s.memTimer.Cancel()
			s.memTimer = nil
		}
		return
	}
	_, at, seq := s.earliestMember()
	if s.memTimer == nil {
		s.memTimer = s.eng.AtKey(at, seq, s.memFireFn)
	} else if tat, tseq := s.memTimer.Key(); tat != at || tseq != seq {
		s.memTimer.ResetKey(at, seq)
	}
}

// memFire completes the earliest member's segment. Whatever the
// completion changes in the group is re-armed once, afterwards.
func (s *Scheduler) memFire() {
	s.memTimer = nil
	s.memHold++
	i, _, _ := s.earliestMember()
	t := s.memGroup[i].t
	s.dropMember(t)
	s.onSegmentDone(t)
	s.memHold--
	s.armMemGroup()
}

// ---- queue management ----

func (s *Scheduler) removeQueued(t *Task) {
	if t.state != StateRunnable || t.cpu < 0 {
		return
	}
	c := s.cpus[t.cpu]
	if !c.dl.remove(t) && !c.fifo.remove(t) {
		c.fair.remove(t)
	}
}

// selectCPU implements wake-up placement: previous CPU if idle, then a
// fully idle core, then any idle CPU, then the least-loaded allowed CPU.
func (s *Scheduler) selectCPU(t *Task) *cpuState {
	allowed := t.affinity
	if t.cpu >= 0 && allowed.Has(t.cpu) && s.cpus[t.cpu].idle() {
		return s.cpus[t.cpu]
	}
	var fullIdle, anyIdle, least *cpuState
	leastLoad := math.MaxInt32
	for cpu := allowed.First(); cpu >= 0; cpu = allowed.NextFrom(cpu + 1) {
		c := s.cpus[cpu]
		if c.idle() {
			if anyIdle == nil {
				anyIdle = c
			}
			if fullIdle == nil && !s.siblingBusy(cpu) {
				sib := s.topo.Sibling(cpu)
				if sib < 0 || s.cpus[sib].idle() {
					fullIdle = c
				}
			}
			continue
		}
		load := c.queued()
		if c.curr != nil {
			load++
		}
		// Prefer strictly lighter CPUs; on ties prefer the task's
		// previous CPU (cache locality, and it spreads simultaneous
		// wakeups instead of piling them onto CPU 0).
		if load < leastLoad || (load == leastLoad && cpu == t.cpu) {
			leastLoad = load
			least = c
		}
	}
	if fullIdle != nil {
		return fullIdle
	}
	if anyIdle != nil {
		return anyIdle
	}
	if least != nil {
		return least
	}
	// All allowed CPUs loaded equally high; fall back to first allowed.
	return s.cpus[allowed.First()]
}

// wake makes a task runnable and places it on a CPU.
func (s *Scheduler) wake(t *Task) {
	if t.policy == PolicyDeadline && t.state != StateThrottled {
		// Throttled tasks woke through replenishment, which already set
		// their (deadline, budget); every other wakeup passes the CBS rule.
		s.cbsWake(t)
	}
	c := s.selectCPU(t)
	s.enqueue(c, t)
}

func (s *Scheduler) enqueue(c *cpuState, t *Task) {
	t.state = StateRunnable
	t.cpu = c.id
	s.seq++
	t.enqueueSeq = s.seq
	s.arrival++
	t.arrivalSeq = s.arrival
	switch t.policy {
	case PolicyDeadline:
		c.dl.push(t)
	case PolicyFIFO:
		c.fifo.push(t)
	default:
		if t.vruntime < c.minVruntime {
			t.vruntime = c.minVruntime
		}
		c.fair.push(t)
	}
	if c.curr == nil {
		s.resched(c)
		return
	}
	if s.shouldPreempt(c, t, c.curr) {
		curr := c.curr
		curr.Preempted++
		if s.obs != nil {
			s.obs.Instant(c.id, "preempt", "sched", curr.Name+" by "+t.Name, s.eng.Now())
		}
		s.undispatch(curr, StateRunnable)
		s.requeue(c, curr)
		s.resched(c)
		return
	}
	if c.curr.policy == PolicyOther && c.fair.len() > 0 {
		s.armSlice(c)
	}
}

// requeue puts a preempted task back on its CPU's queue, preserving FIFO
// ordering by its original enqueue sequence.
func (s *Scheduler) requeue(c *cpuState, t *Task) {
	t.state = StateRunnable
	s.arrival++
	t.arrivalSeq = s.arrival
	switch t.policy {
	case PolicyDeadline:
		c.dl.push(t)
	case PolicyFIFO:
		c.fifo.push(t)
	default:
		c.fair.push(t)
	}
}

func (s *Scheduler) shouldPreempt(c *cpuState, newT, curr *Task) bool {
	if newT.policy == PolicyDeadline {
		if curr.policy != PolicyDeadline {
			return true
		}
		return newT.dlDeadline < curr.dlDeadline
	}
	if curr.policy == PolicyDeadline {
		return false
	}
	if newT.policy == PolicyFIFO {
		if c.rtThrottled {
			return false
		}
		if curr.policy == PolicyOther {
			return true
		}
		return newT.rtprio > curr.rtprio
	}
	if curr.policy == PolicyFIFO {
		return false
	}
	// Fair wakeup preemption: only if the waker is clearly behind.
	gran := float64(s.opt.WakeupGranularity) * 1024 / curr.weight()
	return newT.vruntime+gran < curr.vruntime
}

// pickNext removes and returns the best runnable task for c, or nil. The
// heap keys reproduce the exact selection of the previous linear scans:
// FIFO by (rtprio desc, enqueueSeq), fair by (vruntime, enqueueSeq).
func (s *Scheduler) pickNext(c *cpuState) *Task {
	// Deadline class first: EDF sits above RT, and RT throttling does not
	// gate it (CBS throttles each deadline task individually).
	if c.dl.len() > 0 {
		return c.dl.pop()
	}
	if c.fifo.len() > 0 && !c.rtThrottled {
		return c.fifo.pop()
	}
	return c.fair.pop()
}

// resched dispatches the next task on an idle CPU.
func (s *Scheduler) resched(c *cpuState) {
	for c.curr == nil {
		t := s.pickNext(c)
		if t == nil {
			return
		}
		if !s.dispatch(c, t) {
			continue // task blocked/finished instantly; pick again
		}
		return
	}
}

// dispatch puts t on CPU c. It reports whether t actually occupies the CPU
// afterwards (false when its next request blocked or finished immediately).
func (s *Scheduler) dispatch(c *cpuState, t *Task) bool {
	now := s.eng.Now()
	migrated := t.lastRunCPU >= 0 && t.lastRunCPU != c.id && t.seg.kind != segNone
	t.cpu = c.id
	t.state = StateRunning
	t.runStart = now
	t.lastAccount = now
	c.curr = t
	s.ContextSwitches++
	s.occupancyChanged(c)
	if t.seg.kind == segMemory {
		s.setStreamActive(t, true)
	}
	if t.seg.kind == segNone {
		s.processRequests(t)
		return s.cpus[c.id].curr == t
	}
	if migrated {
		t.Migrations++
		if s.obs != nil {
			s.obs.Instant(c.id, "migrate", "sched", t.Name, now)
		}
		if s.opt.MigrationCost > 0 {
			// Cache-warmup penalty: extra demand at the current rate.
			r := s.currentRate(t)
			if r > 0 {
				t.remaining += float64(s.opt.MigrationCost) * r
			}
		}
	}
	s.refresh(t)
	s.armSlice(c)
	s.startThrottleWatch(c, t)
	// A deadline task re-dispatched with an exhausted budget throttles
	// here instead of running, releasing the CPU again.
	s.startDLWatch(c, t)
	return s.cpus[c.id].curr == t
}

// undispatch removes the running task from its CPU, accounting and tracing
// its run interval, and leaves it in the given state.
func (s *Scheduler) undispatch(t *Task, newState TaskState) {
	c := s.cpus[t.cpu]
	if c.curr != t {
		panic(fmt.Sprintf("cpusched: undispatch %q not current on cpu %d", t.Name, t.cpu))
	}
	s.account(t)
	s.cancelTimers(t)
	if c.sliceTimer != nil {
		c.sliceTimer.Cancel()
		c.sliceTimer = nil
	}
	if t.vruntime > c.minVruntime {
		c.minVruntime = t.vruntime
	}
	c.curr = nil
	t.state = newState
	t.lastRunCPU = c.id
	if t.streamActive {
		s.setStreamActive(t, false)
	}
	s.emitTaskRun(c, t, t.runStart, s.eng.Now())
	s.occupancyChanged(c)
}

// occupancyChanged updates the SMT sibling's rate after c's occupancy
// changed.
func (s *Scheduler) occupancyChanged(c *cpuState) {
	sib := s.topo.Sibling(c.id)
	if sib >= 0 {
		if st := s.cpus[sib].curr; st != nil {
			s.refresh(st)
		}
	}
}

// processRequests fetches and handles requests from t's body until one
// consumes time (or t blocks/finishes, freeing the CPU). Zero-time
// requests (policy changes, barrier releases) can have side effects that
// preempt t itself; a request fetched while t no longer holds its CPU is
// stashed and consumed at the next dispatch.
func (s *Scheduler) processRequests(t *Task) {
	for {
		var req request
		if t.hasPending {
			req = t.pendingReq
			t.hasPending = false
		} else {
			req = s.fetchNext(t)
		}
		if t.state != StateRunning || s.cpus[t.cpu].curr != t {
			t.pendingReq = req
			t.hasPending = true
			return
		}
		c := s.cpus[t.cpu]
		switch req.kind {
		case reqCompute, reqMemory:
			if req.kind == reqCompute {
				t.seg = segment{kind: segCompute}
			} else {
				t.seg = segment{kind: segMemory}
			}
			t.remaining = req.demand
			t.lastAccount = s.eng.Now()
			if req.kind == reqMemory {
				s.setStreamActive(t, true)
			}
			s.refresh(t)
			s.armSlice(c)
			s.startThrottleWatch(c, t)
			s.startDLWatch(c, t)
			return
		case reqSleepUntil:
			now := s.eng.Now()
			if req.until <= now {
				continue // already past: no time passes
			}
			t.seg = segment{kind: segNone}
			s.undispatch(t, StateSleeping)
			t.wakeTimer = s.eng.At(req.until, t.wakeFn)
			s.resched(c)
			return
		case reqBarrier:
			if done := s.barrierArrive(t, req.bar, req.spin); done {
				continue // released immediately (last arriver): keep going
			}
			if req.spin {
				t.seg = segment{kind: segSpin}
				t.remaining = math.MaxFloat64
				t.lastAccount = s.eng.Now()
				s.refresh(t)
				s.armSlice(c)
				// Spinning consumes budget like any other segment. Without
				// these a deadline task that re-enters a spin barrier after a
				// release (barrierArrive cancels its timers before resuming
				// it) runs unwatched: its budget goes negative without ever
				// throttling, and an equal-deadline Runnable peer on the same
				// CPU starves forever — EDF does not preempt on ties.
				s.startThrottleWatch(c, t)
				s.startDLWatch(c, t)
				return
			}
			t.seg = segment{kind: segNone}
			s.undispatch(t, StateBlocked)
			s.resched(c)
			return
		case reqBlockOn:
			if req.dev == nil {
				panic(fmt.Sprintf("cpusched: task %q BlockOn nil device (not registered?)", t.Name))
			}
			t.seg = segment{kind: segNone}
			if s.obs != nil {
				t.ioArrive = s.eng.Now()
				s.obs.Instant(c.id, "io-submit", "io", req.dev.spec.Name+" "+t.Name, s.eng.Now())
			}
			s.undispatch(t, StateBlockedIO)
			req.dev.submit(t, req.demand)
			s.resched(c)
			return
		case reqSetPolicy:
			t.nice = req.nice
			s.applyPolicy(t, req.policy, req.rtprio)
			if s.cpus[t.cpu].curr != t {
				// Policy downgrade caused preemption; the body resumes when
				// the task is dispatched again.
				return
			}
		case reqDone:
			t.seg = segment{kind: segNone}
			s.undispatch(t, StateDone)
			s.finishCallbacks(t)
			s.resched(c)
			return
		}
	}
}

// applyPolicy changes a running task's class, re-evaluating preemption when
// it downgrades from FIFO while other FIFO tasks wait. The deadline class
// cannot be entered this way: its CBS parameters are part of the TaskSpec,
// so SCHED_DEADLINE is assigned at spawn only (as sched_setattr would
// reject a setattr without a reservation).
func (s *Scheduler) applyPolicy(t *Task, p Policy, rtprio int) {
	if p == PolicyDeadline || t.policy == PolicyDeadline {
		panic(fmt.Sprintf("cpusched: task %q: SCHED_DEADLINE is assigned at spawn, not via SetPolicy", t.Name))
	}
	s.account(t)
	t.policy = p
	t.rtprio = rtprio
	c := s.cpus[t.cpu]
	if p == PolicyOther && c.fifo.len() > 0 && !c.rtThrottled {
		t.Preempted++
		s.undispatch(t, StateRunnable)
		s.requeue(c, t)
		s.resched(c)
	}
}

// onSegmentDone fires when a task's current segment demand reaches zero.
func (s *Scheduler) onSegmentDone(t *Task) {
	t.completion = nil
	if t.state != StateRunning {
		return // stale
	}
	s.account(t)
	if t.remaining > 0.5 {
		// Rate dropped since scheduling; re-arm.
		s.refresh(t)
		return
	}
	if t.streamActive {
		s.setStreamActive(t, false)
	}
	t.seg = segment{kind: segNone}
	t.remaining = 0
	s.processRequests(t)
}

// ---- fair timeslice ----

func (s *Scheduler) armSlice(c *cpuState) {
	if c.curr == nil || c.curr.policy != PolicyOther || c.fair.len() == 0 {
		return
	}
	if c.sliceTimer != nil && c.sliceTimer.Pending() {
		return
	}
	c.sliceTimer = s.eng.After(s.opt.Slice, c.sliceFn)
}

func (s *Scheduler) sliceExpire(c *cpuState) {
	c.sliceTimer = nil
	t := c.curr
	if t == nil || t.policy != PolicyOther || c.fair.len() == 0 {
		return
	}
	t.Preempted++
	if s.obs != nil {
		s.obs.Instant(c.id, "slice-expire", "sched", t.Name, s.eng.Now())
	}
	s.undispatch(t, StateRunnable)
	s.seq++
	t.enqueueSeq = s.seq
	s.requeue(c, t)
	s.resched(c)
}

// ---- tracing ----

func (s *Scheduler) emitTaskRun(c *cpuState, t *Task, start, end sim.Time) {
	if s.obs != nil && end > start {
		s.obs.Span(c.id, t.Name, t.Kind.String(), t.policy.String(), start, end)
	}
	if s.tracer == nil || end <= start {
		return
	}
	s.tracer.TaskRan(c.id, t, start, end)
	s.traceSteal(c)
}

// traceSteal accumulates the per-record tracing overhead against the CPU
// the record was taken on; refresh charges it to the next accountable
// segment running there.
func (s *Scheduler) traceSteal(c *cpuState) {
	if s.opt.TraceOverhead <= 0 {
		return
	}
	c.pendingSteal += s.opt.TraceOverhead
	s.stealCPUs = s.stealCPUs.Set(c.id)
	if t := c.curr; t != nil && t.state == StateRunning &&
		(t.seg.kind == segCompute || t.seg.kind == segMemory) {
		s.refresh(t)
	}
}
