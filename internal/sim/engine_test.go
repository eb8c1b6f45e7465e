package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	var tm *Timer
	tm = e.At(5, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 40 {
		t.Fatalf("Now() = %v, want 40", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25 after RunUntil(25)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("After with negative duration should fire immediately")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
		{MaxTime, "+inf"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatal("FromSeconds broken")
	}
	if FromMicros(2.5) != 2500 {
		t.Fatal("FromMicros broken")
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBeforeAdvanceRunsOnceBeforeClockMoves checks the hook's timing: it
// runs after every event at the registering instant, including one those
// events schedule at that instant, and before the first later event; it
// runs once, counts no step and takes no sequence number.
func TestBeforeAdvanceRunsOnceBeforeClockMoves(t *testing.T) {
	e := NewEngine()
	var order []string
	hooks := 0
	hook := func() {
		hooks++
		order = append(order, "hook")
	}
	e.At(10, func() {
		order = append(order, "a")
		e.BeforeAdvance(hook)
		e.At(10, func() { order = append(order, "b") })
	})
	e.At(10, func() { order = append(order, "c") })
	e.At(20, func() { order = append(order, "d") })
	seq := e.seq
	e.Run()
	if got := fmt.Sprint(order); got != "[a c b hook d]" {
		t.Fatalf("order %s, want [a c b hook d]", got)
	}
	if hooks != 1 || e.Steps != 4 || e.seq != seq+1 {
		t.Fatalf("hooks=%d steps=%d seq %d -> %d; want 1 hook, 4 steps, one new sequence number",
			hooks, e.Steps, seq, e.seq)
	}
}

// TestBeforeAdvanceOnDrain checks that a hook registered by the last event
// runs when the queue empties, and that what it schedules still runs.
func TestBeforeAdvanceOnDrain(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(5, func() {
		order = append(order, "a")
		e.BeforeAdvance(func() {
			order = append(order, "hook")
			e.At(e.Now()+1, func() { order = append(order, "b") })
		})
	})
	e.Run()
	if got := fmt.Sprint(order); got != "[a hook b]" || e.Now() != 6 || e.Steps != 2 {
		t.Fatalf("order %s at %v after %d steps, want [a hook b] at 6 after 2", got, e.Now(), e.Steps)
	}
}

// TestBeforeAdvanceRunUntil checks that RunUntil runs the hook before the
// clock moves: before a later event within the bound, and before jumping
// to the bound when no event is left there.
func TestBeforeAdvanceRunUntil(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() {
		order = append(order, "a")
		e.BeforeAdvance(func() { order = append(order, fmt.Sprint("hook@", int64(e.Now()))) })
	})
	e.At(15, func() {
		order = append(order, "b")
		e.BeforeAdvance(func() { order = append(order, fmt.Sprint("hook@", int64(e.Now()))) })
	})
	e.At(30, func() { order = append(order, "c") })
	e.RunUntil(20)
	if got := fmt.Sprint(order); got != "[a hook@10 b hook@15]" || e.Now() != 20 {
		t.Fatalf("order %s at %v, want [a hook@10 b hook@15] at 20", got, e.Now())
	}
}

// TestBeforeAdvanceRunsEveryHook checks that hooks registered by several
// holders at one instant all run, once each, in registration order.
func TestBeforeAdvanceRunsEveryHook(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() {
		e.BeforeAdvance(func() { order = append(order, "first") })
		e.BeforeAdvance(func() { order = append(order, "second") })
	})
	e.At(10, func() { e.BeforeAdvance(func() { order = append(order, "third") }) })
	e.At(11, func() { order = append(order, "later") })
	e.Run()
	if got := fmt.Sprint(order); got != "[first second third later]" {
		t.Fatalf("order %s, want [first second third later]", got)
	}
}

// TestBeforeAdvanceForkDrops checks that Fork drops a pending hook.
func TestBeforeAdvanceForkDrops(t *testing.T) {
	e := NewEngine()
	snap := e.Snapshot()
	ran := false
	e.At(1, func() { e.BeforeAdvance(func() { ran = true }) })
	e.At(2, func() {})
	e.Step()
	e.Fork(snap)
	e.At(3, func() {})
	e.Run()
	if ran {
		t.Fatal("hook survived Fork")
	}
}

// TestReserveSeqsEqualsNextSeq checks that ReserveSeqs(n) reserves exactly
// the numbers n calls of NextSeq would, including none for n = 0.
func TestReserveSeqsEqualsNextSeq(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	for _, n := range []int{0, 1, 3, 0, 7, 2} {
		first := a.ReserveSeqs(n)
		want := b.seq + 1
		for k := 0; k < n; k++ {
			if got := b.NextSeq(); got != want+uint64(k) {
				t.Fatalf("NextSeq %d, want %d", got, want+uint64(k))
			}
		}
		if first != want || a.seq != b.seq {
			t.Fatalf("ReserveSeqs(%d) = %d with counter %d; NextSeq x%d starts at %d with counter %d",
				n, first, a.seq, n, want, b.seq)
		}
	}
}
