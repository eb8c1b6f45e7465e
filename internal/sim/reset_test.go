package sim

import (
	"fmt"
	"testing"
)

// resetFire is one delivered event: when it fired and which callback ran.
type resetFire struct {
	at Time
	id int
}

// resetPlayer interprets a byte script as At/Cancel/Reset operations on one
// engine, mixed with AtKey/ResetKey under sequence numbers reserved earlier
// with NextSeq or ReserveSeqs, and BeforeAdvance hooks. The top level runs a few operations at time zero; every
// callback records its firing and then runs more operations from inside
// the event, so resets happen both outside and inside callbacks. With
// useReset false a reset is spelled Cancel followed by At (or AtKey, for a
// ResetKey) with the same callback, the sequence Reset and ResetKey claim
// to equal.
//
// The player also models the queue: it tracks the (time, seq) key every
// live timer should carry, numbering sequence numbers the way the engine
// promises to. Each firing must be the live timer with the smallest key —
// the order a plain sort of the keys gives. After every operation and
// every firing the engine must count exactly the live timers as pending,
// and each live handle's Key must be the model's. Each hook must run once, in
// registration order, at the instant it was registered, after the last
// event there and before any later one.
type resetPlayer struct {
	e        *Engine
	script   []byte
	pos      int
	useReset bool
	live     []resetHandle
	nextID   int
	seq      uint64   // the model's sequence counter
	reserved []uint64 // sequence numbers reserved and not used yet
	fired    []resetFire
	bad      string // the first departure from the model, if any

	pendingHooks []resetHook // registered BeforeAdvance hooks not yet run
	nextHook     int
	hooks        int // hooks run
}

// resetHook is a registered BeforeAdvance hook: its identity and the
// instant it was registered at.
type resetHook struct {
	id int
	at Time
}

type resetHandle struct {
	tm  *Timer
	id  int
	fn  func()
	at  Time
	seq uint64
}

func (p *resetPlayer) next() (byte, bool) {
	if p.pos >= len(p.script) {
		return 0, false
	}
	b := p.script[p.pos]
	p.pos++
	return b, true
}

// takeSeq is the model of NextSeq: the sequence number At, Reset or a
// reservation takes.
func (p *resetPlayer) takeSeq() uint64 {
	p.seq++
	return p.seq
}

// takeReserved removes and returns one reserved sequence number.
func (p *resetPlayer) takeReserved(arg byte) uint64 {
	i := int(arg) % len(p.reserved)
	seq := p.reserved[i]
	p.reserved = append(p.reserved[:i], p.reserved[i+1:]...)
	return seq
}

// ops runs up to n operations, stopping early when the script is spent.
func (p *resetPlayer) ops(n int) {
	for k := 0; k < n; k++ {
		op, ok := p.next()
		if !ok {
			return
		}
		arg, _ := p.next()
		switch op % 10 {
		case 0, 1, 2:
			p.schedule(p.e.Now()+Time(arg%8), p.takeSeq(), false)
		case 3:
			if len(p.live) > 0 {
				i := int(arg) % len(p.live)
				p.live[i].tm.Cancel()
				p.live = append(p.live[:i], p.live[i+1:]...)
			}
		case 4:
			if len(p.live) > 0 {
				mode, _ := p.next()
				h := &p.live[int(arg)%len(p.live)]
				p.reset(h, p.resetTarget(h.tm.At(), mode), p.takeSeq(), false)
			}
		case 5:
			seq := p.e.NextSeq()
			if want := p.takeSeq(); seq != want {
				p.fail(fmt.Sprintf("NextSeq returned %d, want %d", seq, want))
			}
			p.reserved = append(p.reserved, seq)
		case 6:
			if len(p.reserved) > 0 {
				mode, _ := p.next()
				p.schedule(p.e.Now()+Time(mode%8), p.takeReserved(arg), true)
			}
		case 7:
			if len(p.reserved) > 0 && len(p.live) > 0 {
				mode, _ := p.next()
				h := &p.live[int(arg)%len(p.live)]
				p.reset(h, p.resetTarget(h.tm.At(), mode), p.takeReserved(mode/32), true)
			}
		case 8:
			n := int(arg % 4)
			first := p.e.ReserveSeqs(n)
			if want := p.seq + 1; first != want {
				p.fail(fmt.Sprintf("ReserveSeqs(%d) returned %d, want %d", n, first, want))
			}
			for ; n > 0; n-- {
				p.reserved = append(p.reserved, p.takeSeq())
			}
		case 9:
			h := resetHook{id: p.nextHook, at: p.e.Now()}
			p.nextHook++
			p.pendingHooks = append(p.pendingHooks, h)
			p.e.BeforeAdvance(func() { p.hook(h) })
		}
		p.checkQueue()
	}
}

// checkQueue compares the engine's queue with the model: the pending
// count and the key of every live timer.
func (p *resetPlayer) checkQueue() {
	if n := p.e.Pending(); n != len(p.live) {
		p.fail(fmt.Sprintf("Pending() = %d at %v, model has %d live timers", n, p.e.Now(), len(p.live)))
	}
	for _, h := range p.live {
		if !h.tm.Pending() {
			p.fail(fmt.Sprintf("live timer %d is not pending", h.id))
		} else if at, seq := h.tm.Key(); at != h.at || seq != h.seq {
			p.fail(fmt.Sprintf("timer %d: key (%v, %d), model (%v, %d)", h.id, at, seq, h.at, h.seq))
		}
	}
}

// hook is the BeforeAdvance callback: it checks that h is the oldest
// pending hook and runs at the instant it was registered, with no live
// timer left there, and then runs more operations.
func (p *resetPlayer) hook(h resetHook) {
	if len(p.pendingHooks) == 0 || p.pendingHooks[0] != h {
		p.fail(fmt.Sprintf("hook %d ran out of order (pending %v)", h.id, p.pendingHooks))
	} else {
		p.pendingHooks = p.pendingHooks[1:]
	}
	if now := p.e.Now(); now != h.at {
		p.fail(fmt.Sprintf("hook %d registered at %v ran at %v", h.id, h.at, now))
	}
	for _, l := range p.live {
		if l.at <= p.e.Now() {
			p.fail(fmt.Sprintf("hook %d ran at %v with timer %d still due at %v", h.id, p.e.Now(), l.id, l.at))
		}
	}
	p.hooks++
	n, _ := p.next()
	p.ops(1 + int(n%2))
}

func (p *resetPlayer) fail(msg string) {
	if p.bad == "" {
		p.bad = msg
	}
}

// resetTarget picks the new instant for a timer due at `at`: now, earlier
// than at, later than at, or at itself (a same-time reset still moves the
// timer behind its ties, since it takes a new sequence number).
func (p *resetPlayer) resetTarget(at Time, mode byte) Time {
	now := p.e.Now()
	switch mode % 4 {
	case 0:
		return now
	case 1:
		return now + (at-now)/2
	case 2:
		return at + 1 + Time(mode/4%8)
	default:
		return at
	}
}

// schedule arms a new timer under (at, seq): with At when seq is the one
// At takes now, with AtKey when it was reserved earlier.
func (p *resetPlayer) schedule(at Time, seq uint64, reserved bool) {
	id := p.nextID
	p.nextID++
	fn := func() {
		if len(p.pendingHooks) > 0 && p.e.Now() > p.pendingHooks[0].at {
			p.fail(fmt.Sprintf("timer %d fired at %v before hook %d registered at %v",
				id, p.e.Now(), p.pendingHooks[0].id, p.pendingHooks[0].at))
		}
		min := 0
		for i, h := range p.live {
			if h.at < p.live[min].at || (h.at == p.live[min].at && h.seq < p.live[min].seq) {
				min = i
			}
		}
		if h := p.live[min]; h.id != id || h.at != p.e.Now() {
			p.fail(fmt.Sprintf("timer %d fired at %v; the smallest live key is timer %d at (%v, %d)",
				id, p.e.Now(), h.id, h.at, h.seq))
		}
		for i, h := range p.live {
			if h.id == id {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
		p.checkQueue()
		p.fired = append(p.fired, resetFire{at: p.e.Now(), id: id})
		n, _ := p.next()
		p.ops(2 + int(n%3))
	}
	var tm *Timer
	if reserved {
		tm = p.e.AtKey(at, seq, fn)
	} else {
		tm = p.e.At(at, fn)
	}
	p.live = append(p.live, resetHandle{tm: tm, id: id, fn: fn, at: at, seq: seq})
}

// reset moves h to (at, seq): with Reset or ResetKey, or with Cancel then
// At or AtKey.
func (p *resetPlayer) reset(h *resetHandle, at Time, seq uint64, reserved bool) {
	h.at, h.seq = at, seq
	switch {
	case p.useReset && reserved:
		h.tm.ResetKey(at, seq)
	case p.useReset:
		h.tm.Reset(at)
	case reserved:
		h.tm.Cancel()
		h.tm = p.e.AtKey(at, seq, h.fn)
	default:
		h.tm.Cancel()
		h.tm = p.e.At(at, h.fn)
	}
}

// playResetScript runs the script on a fresh engine.
func playResetScript(script []byte, useReset bool) *resetPlayer {
	p := &resetPlayer{e: NewEngine(), script: script, useReset: useReset}
	p.ops(6)
	p.e.Run()
	if len(p.pendingHooks) > 0 {
		p.fail(fmt.Sprintf("BeforeAdvance hooks %v never ran", p.pendingHooks))
	}
	return p
}

// checkResetEquivalence runs the script both ways and compares what fired,
// in what order and when, plus the engine counters; each run must also pop
// in the order of its sorted keys.
func checkResetEquivalence(t *testing.T, script []byte) {
	t.Helper()
	a := playResetScript(script, true)
	b := playResetScript(script, false)
	for _, p := range []*resetPlayer{a, b} {
		if p.bad != "" {
			t.Fatalf("useReset=%v: %s", p.useReset, p.bad)
		}
		if p.e.seq != p.seq {
			t.Fatalf("useReset=%v: engine sequence %d, model %d", p.useReset, p.e.seq, p.seq)
		}
	}
	if len(a.fired) != len(b.fired) {
		t.Fatalf("Reset fired %d events, Cancel+At fired %d", len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("event %d: Reset fired %+v, Cancel+At fired %+v", i, a.fired[i], b.fired[i])
		}
	}
	if a.e.Steps != uint64(len(a.fired)) || a.hooks != b.hooks {
		t.Fatalf("Reset run: %d steps for %d firings; hooks ran %d and %d times",
			a.e.Steps, len(a.fired), a.hooks, b.hooks)
	}
	if a.e.Steps != b.e.Steps || a.e.seq != b.e.seq || a.e.TimerAllocs != b.e.TimerAllocs {
		t.Fatalf("counters differ: Reset steps=%d seq=%d allocs=%d, Cancel+At steps=%d seq=%d allocs=%d",
			a.e.Steps, a.e.seq, a.e.TimerAllocs, b.e.Steps, b.e.seq, b.e.TimerAllocs)
	}
	if b.e.Rekeys != 0 {
		t.Fatalf("Cancel+At counted %d re-keys", b.e.Rekeys)
	}
}

// TestTimerResetEquivalence is the property behind Reset and ResetKey: on
// random scripts of At/Cancel/Reset and reserved-key AtKey/ResetKey they
// fire exactly the (time, callback) sequence that Cancel followed by
// At/AtKey fires, and that sequence is the sorted order of the keys. The
// scripts also reserve sequence blocks and register BeforeAdvance hooks,
// whose timing the player checks.
func TestTimerResetEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		rng := NewRNG(seed)
		script := make([]byte, 16+rng.Intn(240))
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkResetEquivalence(t, script) })
	}
}

// FuzzEngineResetEquivalence fuzzes the same property over arbitrary
// scripts. Run it with `make fuzz-smoke` or
// `go test ./internal/sim -run xxx -fuzz FuzzEngineResetEquivalence`.
func FuzzEngineResetEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 3, 0, 1, 3, 1, 2, 2, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 7, 3, 2, 6, 3, 0, 3, 3, 1, 1, 3, 2, 9})
	f.Add([]byte{4, 0, 0, 5, 4, 0, 5, 1, 3, 6, 0, 2, 1, 5, 0, 7, 6, 0, 1, 4, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) { checkResetEquivalence(t, script) })
}

// TestTimerResetRekeysInPlace checks the direct cases: moving a timer
// earlier, later, and to the same instant reorders it as Cancel+At would,
// and the timer keeps its struct instead of going through the free pool.
func TestTimerResetRekeysInPlace(t *testing.T) {
	e := NewEngine()
	var order []string
	a := e.At(10, func() { order = append(order, "a") })
	e.At(10, func() { order = append(order, "b") })
	c := e.At(20, func() { order = append(order, "c") })
	d := e.At(3, func() { order = append(order, "d") })
	free := len(e.free)
	a.Reset(10) // same instant: now behind b
	c.Reset(5)  // earlier: first
	d.Reset(15) // later: last
	if !a.Pending() || !c.Pending() || !d.Pending() || len(e.free) != free || e.Pending() != 4 {
		t.Fatalf("Reset changed pool or queue: free %d -> %d, pending=%d", free, len(e.free), e.Pending())
	}
	e.Run()
	if got := fmt.Sprint(order); got != "[c b a d]" {
		t.Fatalf("fire order %s, want [c b a d]", got)
	}
}

// TestTimerResetDeadOrPastPanics pins Reset's preconditions: the handle
// must be pending and the target must not be in the past.
func TestTimerResetDeadOrPastPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Reset did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	fired := e.At(1, func() {})
	e.Run()
	mustPanic("fired", func() { fired.Reset(5) })

	cancelled := e.At(5, func() {})
	cancelled.Cancel()
	mustPanic("cancelled", func() { cancelled.Reset(6) })

	e.RunUntil(10)
	past := e.At(20, func() {})
	mustPanic("before now", func() { past.Reset(9) })
	if !past.Pending() || past.At() != 20 {
		t.Fatalf("a rejected Reset moved the timer: pending=%v at=%v", past.Pending(), past.At())
	}
	var nilTimer *Timer
	mustPanic("nil", func() { nilTimer.Reset(10) })
}

// TestAtKeyTakesReservedPlace checks the direct case: an event scheduled
// with a sequence number reserved before a same-time event fires before
// it, and ResetKey moves a timer to a reserved key without taking a new
// sequence number.
func TestAtKeyTakesReservedPlace(t *testing.T) {
	e := NewEngine()
	var order []string
	early := e.NextSeq()
	late := e.NextSeq()
	e.At(10, func() { order = append(order, "b") })
	e.AtKey(10, early, func() { order = append(order, "a") })
	c := e.At(10, func() { order = append(order, "c") })
	seq := e.seq
	c.ResetKey(10, late) // between a and b
	if at, got := c.Key(); at != 10 || got != late || e.seq != seq || e.Rekeys != 1 {
		t.Fatalf("ResetKey: key (%v, %d), seq %d -> %d, rekeys %d; want (10, %d), seq unchanged, 1 rekey",
			at, got, seq, e.seq, e.Rekeys, late)
	}
	e.Run()
	if got := fmt.Sprint(order); got != "[a c b]" {
		t.Fatalf("fire order %s, want [a c b]", got)
	}
}

// TestTimerKeyPanics pins the preconditions of the reserved-key calls:
// ResetKey needs a pending timer, neither call may schedule in the past,
// and the sequence number must have been reserved.
func TestTimerKeyPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	fired := e.At(1, func() {})
	e.Run()
	mustPanic("ResetKey fired", func() { fired.ResetKey(5, e.NextSeq()) })

	cancelled := e.At(5, func() {})
	cancelled.Cancel()
	mustPanic("ResetKey cancelled", func() { cancelled.ResetKey(6, e.NextSeq()) })

	e.RunUntil(10)
	mustPanic("AtKey before now", func() { e.AtKey(9, e.NextSeq(), func() {}) })
	mustPanic("AtKey unreserved", func() { e.AtKey(20, e.seq+1, func() {}) })
	mustPanic("AtKey zero", func() { e.AtKey(20, 0, func() {}) })
	live := e.At(20, func() {})
	mustPanic("ResetKey before now", func() { live.ResetKey(9, e.NextSeq()) })
	mustPanic("ResetKey unreserved", func() { live.ResetKey(30, e.seq+1) })
	if at, _ := live.Key(); !live.Pending() || at != 20 || e.Pending() != 1 {
		t.Fatalf("rejected calls changed the queue: pending=%v at=%v queue=%d", live.Pending(), at, e.Pending())
	}
}
