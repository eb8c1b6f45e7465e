package sim

import "fmt"

// Timer is a scheduled callback. It can be cancelled before it fires, or
// moved to another instant with Reset or ResetKey.
//
// Timer structs are pooled: once a timer has fired or been cancelled the
// engine may recycle it for a later At/After call. A handle is therefore
// dead after its callback fires or after Cancel — holders that store a
// *Timer must clear or reassign the reference when the callback runs
// (every in-tree holder does so as the first statement of its callback)
// and when they cancel it. Cancel and Pending on a dead handle remain safe
// no-ops only until the struct is reused. Reset, ResetKey and Key need a
// pending handle; the resets panic on a dead one.
type Timer struct {
	at  Time
	fn  func()
	idx int // position in the engine's heap; -1 when not queued
	eng *Engine
}

// At returns the simulated instant the timer fires at.
func (t *Timer) At() Time { return t.at }

// Cancel prevents the timer from firing: the timer leaves the queue at once
// (O(log n)) and its struct returns to the free pool. Cancelling an
// already-fired or already-cancelled timer is a no-op. It reports whether
// the timer was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.idx < 0 {
		return false
	}
	t.eng.removeAt(t.idx)
	t.eng.release(t)
	return true
}

// Reset moves a pending timer to fire at simulated time at, keeping its
// callback. It is exactly Cancel followed by At(at, fn): the timer takes the
// next scheduling sequence number, as At would, so it fires in the same
// order. Instead of leaving the queue and entering it again, it re-keys its
// heap slot in place and sifts up or down from there. Reset panics when the
// timer has fired or been cancelled, or when at is before Now.
func (t *Timer) Reset(at Time) {
	if !t.Pending() {
		panic("sim: Reset of a fired or cancelled timer")
	}
	t.ResetKey(at, t.eng.NextSeq())
}

// ResetKey re-keys a pending timer to (at, seq) in place, like Reset but
// with a sequence number the caller reserved earlier with NextSeq instead
// of a fresh one. A holder that multiplexes several logical timers onto one
// engine timer uses it to give the timer the exact key the earliest of them
// would carry. ResetKey panics when the timer has fired or been cancelled,
// when at is before Now, or when seq was never handed out.
func (t *Timer) ResetKey(at Time, seq uint64) {
	if !t.Pending() {
		panic("sim: ResetKey of a fired or cancelled timer")
	}
	e := t.eng
	e.checkKey(at, seq)
	e.Rekeys++
	t.at = at
	e.fix(t.idx, heapEntry{at: at, seq: seq, tm: t})
}

// Key returns the (time, sequence) key a pending timer fires under.
func (t *Timer) Key() (Time, uint64) { return t.at, t.eng.heap[t.idx].seq }

// Pending reports whether the timer is scheduled and not cancelled.
func (t *Timer) Pending() bool { return t != nil && t.idx >= 0 }

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, which keeps runs deterministic.
//
// The event queue is a 4-ary min-heap on the (time, scheduling sequence)
// key. The key is unique, so the heap pops events in exactly the order any
// correct priority queue would. Each queued Timer records its heap index,
// so Cancel removes it eagerly instead of leaving a cancelled entry behind;
// the cancel-heavy refresh path (interrupt arrivals pausing a running
// task's completion timer) would otherwise fill the queue with dead
// entries. The same index lets Reset re-key a timer where it sits, which
// is how a running task's completion moves when its rate changes; ResetKey
// and AtKey take a key whose sequence number was reserved earlier with
// NextSeq, so one timer can stand in for several logical ones. Heap
// entries carry their key inline, so sifts compare packed (at, seq) pairs
// rather than chasing Timer pointers.
type Engine struct {
	now  Time
	heap []heapEntry
	free []*Timer // recycled Timer structs, so steady-state event flow does not allocate
	seq  uint64
	// Steps counts processed events, for diagnostics and runaway detection
	// in tests.
	Steps uint64
	// Rekeys counts in-place re-keys of pending timers (Reset and
	// ResetKey), the queue work that moves an event without firing it.
	Rekeys uint64
	// TimerAllocs counts Timer structs allocated because the free pool was
	// empty — the engine-side "copy on first write" count of a forked rep.
	// A warm engine runs a rep without growing it.
	TimerAllocs uint64
	// hooks are the pending BeforeAdvance hooks, in registration order.
	hooks []func()
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// NextSeq reserves the next scheduling sequence number, the one At or
// Reset would take at this point. Reserved numbers are handed to AtKey or
// ResetKey, possibly much later; numbers never repeat, so keys stay unique.
func (e *Engine) NextSeq() uint64 {
	e.seq++
	return e.seq
}

// ReserveSeqs reserves n consecutive sequence numbers, exactly as n calls
// of NextSeq would, and returns the first of them. With n = 0 it reserves
// nothing and returns the number the next reservation will take.
func (e *Engine) ReserveSeqs(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// BeforeAdvance registers fn to run once, after the events at the current
// instant and before the clock moves on: Step and RunUntil call it before
// they fire an event later than Now, before RunUntil moves the clock, and
// when the queue runs dry. A holder that defers work until an instant ends
// flushes it there. The call is not an event: it counts no step and takes
// no sequence number. Pending hooks run in the order they were registered
// (several schedulers can share one engine); Fork drops them.
func (e *Engine) BeforeAdvance(fn func()) { e.hooks = append(e.hooks, fn) }

// settle runs the pending BeforeAdvance hooks once no event remains at the
// current instant.
func (e *Engine) settle() {
	for len(e.hooks) > 0 && (len(e.heap) == 0 || e.heap[0].at > e.now) {
		fn := e.hooks[0]
		n := copy(e.hooks, e.hooks[1:])
		e.hooks[n] = nil
		e.hooks = e.hooks[:n]
		fn()
	}
}

// At schedules fn to run at simulated time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Timer { return e.AtKey(t, e.NextSeq(), fn) }

// AtKey schedules fn under the key (t, seq), where seq was reserved with
// NextSeq. Events order by (time, sequence), so the event fires exactly
// where one scheduled with At at the moment of the reservation would.
// AtKey panics when t is before Now or seq was never handed out.
func (e *Engine) AtKey(t Time, seq uint64, fn func()) *Timer {
	e.checkKey(t, seq)
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		tm = &Timer{eng: e}
		e.TimerAllocs++
	}
	tm.at, tm.fn = t, fn
	e.heap = append(e.heap, heapEntry{})
	e.up(len(e.heap)-1, heapEntry{at: t, seq: seq, tm: tm})
	return tm
}

// checkKey rejects keys in the past and sequence numbers not yet reserved.
func (e *Engine) checkKey(t Time, seq uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("sim: sequence %d was never reserved (last %d)", seq, e.seq))
	}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Pending returns the number of live (scheduled, uncancelled) events.
func (e *Engine) Pending() int { return len(e.heap) }

// Stats is a snapshot of engine-level counters, feeding the observability
// registry (internal/obs) at end of run.
type Stats struct {
	// Steps is the number of events processed so far.
	Steps uint64
	// Rekeys is the number of in-place timer re-keys so far.
	Rekeys uint64
	// Pending is the live event-queue depth.
	Pending int
	// FreeTimers is the recycled-Timer pool size — how deep the event flow
	// ran without allocating.
	FreeTimers int
	// TimerAllocs is the number of Timer structs allocated because the free
	// pool was empty (pool misses since engine construction).
	TimerAllocs uint64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{Steps: e.Steps, Rekeys: e.Rekeys, Pending: e.Pending(),
		FreeTimers: len(e.free), TimerAllocs: e.TimerAllocs}
}

// Snapshot captures the engine's position — clock, scheduling sequence,
// and step and re-key counts — so a later Fork can rewind to it. Only
// quiescent positions (no pending events) are forkable: a pending callback
// closes over simulation state the snapshot cannot reproduce, so Fork from
// a non-quiescent snapshot panics.
type Snapshot struct {
	now     Time
	seq     uint64
	steps   uint64
	rekeys  uint64
	pending int
}

// Snapshot records the engine's current position.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{now: e.now, seq: e.seq, steps: e.Steps, rekeys: e.Rekeys, pending: e.Pending()}
}

// Fork rewinds the engine to a quiescent snapshot: every pending timer is
// cancelled wholesale (the structs return to the free pool, so the next
// rep's event flow starts warm and allocation-free), pending
// BeforeAdvance hooks are dropped, and the clock, sequence counter, and
// step and re-key counters are restored. Holders of *Timer handles must drop
// them — the structs are recycled.
func (e *Engine) Fork(s Snapshot) {
	if s.pending != 0 {
		panic("sim: Fork from a snapshot with pending events")
	}
	for _, h := range e.heap {
		e.release(h.tm)
	}
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.hooks)
	e.hooks = e.hooks[:0]
	e.now, e.seq, e.Steps, e.Rekeys = s.now, s.seq, s.steps, s.rekeys
}

// release returns a fired or cancelled timer to the free list.
func (e *Engine) release(tm *Timer) {
	tm.fn = nil
	tm.idx = -1
	e.free = append(e.free, tm)
}

// fire pops the earliest event and runs it.
func (e *Engine) fire() {
	tm := e.heap[0].tm
	e.removeAt(0)
	e.now = tm.at
	e.Steps++
	tm.fn()
	e.release(tm)
}

// Step processes the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.hooks) > 0 {
		e.settle()
	}
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t (even if no event fired exactly at t). Pending BeforeAdvance hooks run
// before each move of the clock, including the last one.
func (e *Engine) RunUntil(t Time) {
	for {
		e.settle()
		if len(e.heap) == 0 || e.heap[0].at > t {
			break
		}
		e.fire()
	}
	if e.now < t {
		e.now = t
	}
}

// RunWhile processes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// ---- 4-ary min-heap event queue ----

// heapEntry is one queue slot: the ordering key inline, plus its timer.
type heapEntry struct {
	at  Time
	seq uint64
	tm  *Timer
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up places x at slot i or above it, moving larger parents down into the
// hole.
func (e *Engine) up(i int, x heapEntry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].tm.idx = i
		i = p
	}
	h[i] = x
	x.tm.idx = i
}

// down places x at slot i or below it, moving the smallest child up into
// the hole.
func (e *Engine) down(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		h[i].tm.idx = i
		i = m
	}
	h[i] = x
	x.tm.idx = i
}

// removeAt takes the entry at slot i out of the heap and marks its timer
// unqueued; the last entry refills the slot and sifts to its place.
func (e *Engine) removeAt(i int) {
	e.heap[i].tm.idx = -1
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = heapEntry{}
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.fix(i, last)
}

// fix places x, whose key may be smaller or larger than the one that held
// slot i, at slot i or wherever the heap order moves it.
func (e *Engine) fix(i int, x heapEntry) {
	if i > 0 && x.less(e.heap[(i-1)/4]) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
}
