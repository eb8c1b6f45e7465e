package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestEnginePendingExact verifies Pending() counts live timers exactly:
// cancelled timers leave the queue at once.
func TestEnginePendingExact(t *testing.T) {
	e := NewEngine()
	var tms []*Timer
	for i := 0; i < 10; i++ {
		at := Time(10 * (i + 1))
		tms = append(tms, e.At(at, func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", e.Pending())
	}
	tms[2].Cancel()
	tms[7].Cancel()
	if e.Pending() != 8 {
		t.Fatalf("Pending() after 2 cancels = %d, want 8", e.Pending())
	}
	e.RunUntil(40) // fires 10, 20, 40 (30 was cancelled)
	if e.Pending() != 5 {
		t.Fatalf("Pending() after RunUntil(40) = %d, want 5", e.Pending())
	}
	tms[9].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", e.Pending())
	}
}

// TestEngineCancelFireInterleaved cancels timers from inside callbacks —
// including a same-instant successor — and checks exactly the right ones
// fire.
func TestEngineCancelFireInterleaved(t *testing.T) {
	e := NewEngine()
	fired := map[int]bool{}
	mark := func(id int) func() { return func() { fired[id] = true } }
	t1 := e.At(10, mark(1))
	var t3, t4 *Timer
	e.At(10, func() {
		fired[2] = true
		t3.Cancel() // same-instant successor: must not fire
		t4.Cancel() // later timer
	})
	t3 = e.At(10, mark(3))
	t4 = e.At(30, mark(4))
	t5 := e.At(40, mark(5))
	e.Run()
	if !fired[1] || !fired[2] || !fired[5] {
		t.Fatalf("expected timers did not fire: %v", fired)
	}
	if fired[3] || fired[4] {
		t.Fatalf("cancelled timers fired: %v", fired)
	}
	if t1.Pending() || t5.Pending() {
		t.Fatal("fired timers still pending")
	}
	if e.Steps != 3 {
		t.Fatalf("Steps = %d, want 3 (cancelled events are not steps)", e.Steps)
	}
}

// TestEngineTimerReuse checks the free list actually recycles timer structs
// and recycled timers behave like fresh ones.
func TestEngineTimerReuse(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 1000; i++ {
		e.After(Time(i), func() { count++ })
	}
	e.Run()
	if count != 1000 {
		t.Fatalf("count = %d", count)
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after run: timers are not pooled")
	}
	// Steady-state schedule/fire cycles must not allocate timers.
	allocs := testing.AllocsPerRun(100, func() {
		e.After(1, func() {})
		e.Step()
	})
	if allocs > 1 { // the closure itself may allocate; the Timer must not
		t.Fatalf("schedule/fire allocates %.1f objects per cycle", allocs)
	}
}

// Property: with random schedule times, a random subset cancelled up
// front, and cancels and re-arms from inside callbacks — including cancels
// of same-instant successors — exactly the surviving timers fire, in the
// order of a reference sort of the survivors by (time, schedule order).
// This exercises the heap's insert, pop, and interior removal together.
func TestEngineHeapRemoveProperty(t *testing.T) {
	f := func(seed int64, delays []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			at        Time
			tm        *Timer
			cancelled bool
			fired     bool
		}
		var recs []*rec // index = schedule order
		var fired []int
		ok := true
		budget := 2*len(delays) + 8
		var arm func(at Time)
		cancel := func(i int) {
			ok = ok && recs[i].tm.Cancel()
			recs[i].cancelled = true
		}
		// pending lists the schedule orders of timers neither fired nor
		// cancelled, split into those due at the current instant and later
		// ones.
		pending := func() (now, later []int) {
			for i, r := range recs {
				if r.fired || r.cancelled {
					continue
				}
				if r.at == e.Now() {
					now = append(now, i)
				} else {
					later = append(later, i)
				}
			}
			return now, later
		}
		arm = func(at Time) {
			i := len(recs)
			r := &rec{at: at}
			recs = append(recs, r)
			r.tm = e.At(at, func() {
				r.fired = true
				fired = append(fired, i)
				now, later := pending()
				ok = ok && e.Pending() == len(now)+len(later)
				switch rng.Intn(4) {
				case 0: // cancel a same-instant successor if there is one
					if len(now) > 0 {
						cancel(now[rng.Intn(len(now))])
					} else if len(later) > 0 {
						cancel(later[rng.Intn(len(later))])
					}
				case 1: // refresh: cancel a pending timer and re-arm it
					if all := append(now, later...); len(all) > 0 && len(recs) < budget {
						j := all[rng.Intn(len(all))]
						cancel(j)
						arm(e.Now() + Time(rng.Intn(8)))
					}
				case 2: // arm a new timer, possibly at this same instant
					if len(recs) < budget {
						arm(e.Now() + Time(rng.Intn(3)))
					}
				}
			})
		}
		for _, d := range delays {
			arm(Time(d))
		}
		// Cancel ~1/3 up front.
		for i := range delays {
			if rng.Intn(3) == 0 {
				cancel(i)
			}
		}
		e.Run()
		var want []int
		for i, r := range recs {
			if !r.cancelled {
				want = append(want, i)
			}
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(recs[a].at, recs[b].at) })
		return ok && slices.Equal(fired, want) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCancelRearmDoesNotGrow runs the refresh pattern — cancel a
// pending timer and re-arm it a little later, as an interrupt arrival does
// to a running task's completion timer — against a fixed background of
// timers. A cancelled timer leaves the queue and returns to the free pool
// at once, so after warm-up neither the queue nor the pool grows.
func TestEngineCancelRearmDoesNotGrow(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const background = 64
	for i := 0; i < background; i++ {
		e.At(Time(1<<40)+Time(i), fn)
	}
	tm := e.After(1000, fn)
	var warm uint64
	for i := 0; i < 20000; i++ {
		if i == 100 {
			warm = e.TimerAllocs
		}
		tm.Cancel()
		tm = e.After(1000, fn)
		e.RunUntil(e.Now() + 1)
	}
	if e.TimerAllocs != warm {
		t.Fatalf("TimerAllocs grew from %d to %d after warm-up: cancelled timers are not recycled",
			warm, e.TimerAllocs)
	}
	if e.Pending() != background+1 {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), background+1)
	}
}

// TestEngineRunUntilSingleTraversal pins that RunUntil fires every event
// at or before the deadline, stops exactly there, and advances the clock to
// it.
func TestEngineRunUntilSingleTraversal(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 15, 25} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(15)
	if len(fired) != 3 || e.Now() != 15 {
		t.Fatalf("fired %v now %v, want 3 events and now=15", fired, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(25)
	if len(fired) != 4 || e.Now() != 25 {
		t.Fatalf("fired %v now %v", fired, e.Now())
	}
}
