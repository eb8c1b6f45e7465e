package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// resetScenario runs a small mixed workload to completion and returns its
// observable outcome: finish time plus the scheduler counters.
func resetScenario(s *Scheduler) (sim.Time, uint64) {
	a := s.SpawnSeq(TaskSpec{Name: "a"}, ReqCompute(3e8))
	b := s.SpawnSeq(TaskSpec{Name: "b", Policy: PolicyFIFO, RTPrio: 10,
		Affinity: machine.SetOf(0)}, ReqCompute(1e8))
	c := s.SpawnSeq(TaskSpec{Name: "c", Affinity: machine.SetOf(0)}, ReqCompute(6e8))
	s.eng.RunWhile(func() bool { return !a.Done() || !b.Done() || !c.Done() })
	return s.eng.Now(), s.ContextSwitches
}

// TestSchedulerForkByteIdentical proves a reset scheduler replays a
// workload with exactly the outcome of a fresh one: same finish time, same
// dispatch counts, same task IDs — the unit-level form of the golden
// pooled-vs-fresh guarantee.
func TestSchedulerForkByteIdentical(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)

	fresh := New(sim.NewEngine(), topo, noBalance())
	ft, fc := resetScenario(fresh)
	fresh.Shutdown()

	eng := sim.NewEngine()
	s := New(eng, topo, noBalance())
	for round := 0; round < 3; round++ {
		gt, gc := resetScenario(s)
		if gt != ft || gc != fc {
			t.Fatalf("round %d diverged: time=%v switches=%d, fresh time=%v switches=%d",
				round, gt, gc, ft, fc)
		}
		s.Shutdown()
		s.Reset()
		eng.Reset()
		if s.nextID != 0 || len(s.tasks) != 0 || s.liveTasks != 0 {
			t.Fatalf("round %d: reset left state: nextID=%d tasks=%d live=%d",
				round, s.nextID, len(s.tasks), s.liveTasks)
		}
		if eng.Now() != 0 || eng.Pending() != 0 {
			t.Fatalf("round %d: engine not rewound: now=%v pending=%d",
				round, eng.Now(), eng.Pending())
		}
	}
}

// TestForkAfterShutdownKeepsLiveEvent pins that Shutdown drops its
// balance-timer handle: a cancelled timer's struct is recycled at once, so
// a stale handle cancelled again by Reset would remove whichever live event
// reused the struct.
func TestForkAfterShutdownKeepsLiveEvent(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, machine.MustPreset(machine.TinyTest), Defaults())
	s.SpawnSeq(TaskSpec{Name: "a"}, ReqCompute(9e9))
	eng.RunUntil(sim.Millisecond) // the balance timer is armed and pending
	s.Shutdown()
	fired := false
	eng.After(sim.Millisecond, func() { fired = true })
	s.Reset()
	eng.Run()
	if !fired {
		t.Fatal("Reset after Shutdown cancelled an unrelated live event")
	}
}

// TestForkEmptiesMemGroup resets while memory streams are mid-segment: the
// kill cascade must leave the stream group empty and its timer dropped,
// and the next rep must replay like a fresh scheduler.
func TestForkEmptiesMemGroup(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)
	rep := func(s *Scheduler) sim.Time {
		a := s.SpawnSeq(TaskSpec{Name: "a", Affinity: machine.SetOf(0)}, ReqMemory(4e6), ReqCompute(1e6))
		b := s.SpawnSeq(TaskSpec{Name: "b", Affinity: machine.SetOf(1)}, ReqMemory(2e6))
		s.eng.RunWhile(func() bool { return !a.Done() || !b.Done() })
		return s.eng.Now()
	}
	fresh := New(sim.NewEngine(), topo, noBalance())
	want := rep(fresh)

	eng := sim.NewEngine()
	s := New(eng, topo, noBalance())
	for i := 0; i < topo.NumCPUs(); i++ {
		s.SpawnSeq(TaskSpec{Name: "stream", Affinity: machine.SetOf(i)}, ReqMemory(1e12))
	}
	eng.RunUntil(sim.Millisecond)
	if len(s.memGroup) != topo.NumCPUs() || s.memTimer == nil {
		t.Fatalf("before reset: %d members, timer %v; want %d members and a timer",
			len(s.memGroup), s.memTimer, topo.NumCPUs())
	}
	s.Reset()
	if len(s.memGroup) != 0 || s.memTimer != nil {
		t.Fatalf("after reset: %d members, timer %v; want none", len(s.memGroup), s.memTimer)
	}
	eng.Reset()
	if got := rep(s); got != want {
		t.Fatalf("rep after reset ended at %v, fresh at %v", got, want)
	}
}

// TestSchedulerForkMidRun kills an unfinished workload via Reset and checks
// the next rep still matches a fresh scheduler — the erroring-rep teardown
// path of a pooled world.
func TestSchedulerForkMidRun(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)

	fresh := New(sim.NewEngine(), topo, noBalance())
	ft, fc := resetScenario(fresh)
	fresh.Shutdown()

	eng := sim.NewEngine()
	s := New(eng, topo, noBalance())
	// Abort a run mid-flight: tasks are still queued or running.
	s.SpawnSeq(TaskSpec{Name: "doomed"}, ReqCompute(9e9))
	s.SpawnSeq(TaskSpec{Name: "doomed2", Affinity: machine.SetOf(1)}, ReqCompute(9e9))
	eng.RunUntil(sim.Millisecond)
	s.Shutdown()
	s.Reset()
	eng.Reset()

	gt, gc := resetScenario(s)
	if gt != ft || gc != fc {
		t.Fatalf("post-abort rep diverged: time=%v switches=%d, fresh time=%v switches=%d",
			gt, gc, ft, fc)
	}
}

// TestTaskPoolRecyclesProgramTasks verifies inline-program task structs are
// recycled across resets: the second rep materializes no fresh tasks.
func TestTaskPoolRecyclesProgramTasks(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)
	eng := sim.NewEngine()
	s := New(eng, topo, noBalance())

	runProg := func() {
		tk := s.SpawnSeq(TaskSpec{Name: "p"}, ReqCompute(3e6))
		s.eng.RunWhile(func() bool { return !tk.Done() })
		s.Shutdown()
		s.Reset()
		eng.Reset()
	}
	runProg()
	allocs := s.TaskAllocs
	runProg()
	if s.TaskAllocs != allocs {
		t.Fatalf("second rep materialized %d fresh tasks, want 0 (pool holds the first rep's)",
			s.TaskAllocs-allocs)
	}
}

// TestForkResetsMemStreams resets a scheduler while tasks stream memory and
// checks the stream bookkeeping returns to its post-New value.
func TestForkResetsMemStreams(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, machine.MustPreset(machine.TinySMTTest), noBalance())
	for i := 0; i < 3; i++ {
		s.SpawnSeq(TaskSpec{Name: "m"}, ReqMemory(1e12))
	}
	eng.RunUntil(sim.Millisecond)
	if s.memStreams != 3 {
		t.Fatalf("memStreams = %d before reset, want 3", s.memStreams)
	}
	checkMemStreams(t, s)
	s.Reset()
	checkMemStreams(t, s)
	if !s.memCPUs.Empty() || s.memStreams != 0 {
		t.Fatalf("reset left streams: memCPUs=%v memStreams=%d", s.memCPUs, s.memStreams)
	}
}
