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
// engine. The top level runs a few operations at time zero; every callback
// records its firing and then runs more operations from inside the event,
// so resets happen both outside and inside callbacks. With useReset false a
// reset is spelled Cancel followed by At with the same callback, the
// sequence Reset claims to equal.
type resetPlayer struct {
	e        *Engine
	script   []byte
	pos      int
	useReset bool
	live     []resetHandle
	nextID   int
	fired    []resetFire
}

type resetHandle struct {
	tm *Timer
	id int
	fn func()
}

func (p *resetPlayer) next() (byte, bool) {
	if p.pos >= len(p.script) {
		return 0, false
	}
	b := p.script[p.pos]
	p.pos++
	return b, true
}

// ops runs up to n operations, stopping early when the script is spent.
func (p *resetPlayer) ops(n int) {
	for k := 0; k < n; k++ {
		op, ok := p.next()
		if !ok {
			return
		}
		arg, _ := p.next()
		switch op % 4 {
		case 0, 1:
			p.schedule(p.e.Now() + Time(arg%8))
		case 2:
			if len(p.live) > 0 {
				i := int(arg) % len(p.live)
				p.live[i].tm.Cancel()
				p.live = append(p.live[:i], p.live[i+1:]...)
			}
		case 3:
			if len(p.live) > 0 {
				mode, _ := p.next()
				h := &p.live[int(arg)%len(p.live)]
				p.reset(h, p.resetTarget(h.tm.At(), mode))
			}
		}
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

func (p *resetPlayer) schedule(at Time) {
	id := p.nextID
	p.nextID++
	fn := func() {
		for i, h := range p.live {
			if h.id == id {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
		p.fired = append(p.fired, resetFire{at: p.e.Now(), id: id})
		n, _ := p.next()
		p.ops(int(n % 4))
	}
	p.live = append(p.live, resetHandle{tm: p.e.At(at, fn), id: id, fn: fn})
}

func (p *resetPlayer) reset(h *resetHandle, at Time) {
	if p.useReset {
		h.tm.Reset(at)
		return
	}
	h.tm.Cancel()
	h.tm = p.e.At(at, h.fn)
}

// playResetScript runs the script on a fresh engine.
func playResetScript(script []byte, useReset bool) *resetPlayer {
	p := &resetPlayer{e: NewEngine(), script: script, useReset: useReset}
	p.ops(4)
	p.e.Run()
	return p
}

// checkResetEquivalence runs the script both ways and compares what fired,
// in what order and when, plus the engine counters.
func checkResetEquivalence(t *testing.T, script []byte) {
	t.Helper()
	a := playResetScript(script, true)
	b := playResetScript(script, false)
	if len(a.fired) != len(b.fired) {
		t.Fatalf("Reset fired %d events, Cancel+At fired %d", len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("event %d: Reset fired %+v, Cancel+At fired %+v", i, a.fired[i], b.fired[i])
		}
	}
	if a.e.Steps != b.e.Steps || a.e.seq != b.e.seq || a.e.TimerAllocs != b.e.TimerAllocs {
		t.Fatalf("counters differ: Reset steps=%d seq=%d allocs=%d, Cancel+At steps=%d seq=%d allocs=%d",
			a.e.Steps, a.e.seq, a.e.TimerAllocs, b.e.Steps, b.e.seq, b.e.TimerAllocs)
	}
}

// TestTimerResetEquivalence is the property behind Reset: on random
// At/Cancel/Reset scripts it fires exactly the (time, callback) sequence
// that Cancel followed by At fires.
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
