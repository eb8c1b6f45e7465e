package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// forkScenario runs a small mixed workload to completion and returns its
// observable outcome: finish time plus the scheduler counters.
func forkScenario(s *Scheduler) (sim.Time, uint64) {
	a := s.SpawnSeq(TaskSpec{Name: "a"}, ReqCompute(3e8))
	b := s.SpawnSeq(TaskSpec{Name: "b", Policy: PolicyFIFO, RTPrio: 10,
		Affinity: machine.SetOf(0)}, ReqCompute(1e8))
	c := s.SpawnSeq(TaskSpec{Name: "c", Affinity: machine.SetOf(0)}, ReqCompute(6e8))
	s.eng.RunWhile(func() bool { return !a.Done() || !b.Done() || !c.Done() })
	return s.eng.Now(), s.ContextSwitches
}

// TestSchedulerForkByteIdentical proves a forked scheduler replays a
// workload with exactly the outcome of a fresh one: same finish time, same
// dispatch counts, same task IDs — the unit-level form of the golden
// batch-vs-legacy guarantee.
func TestSchedulerForkByteIdentical(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)

	fresh := New(sim.NewEngine(), topo, noBalance())
	ft, fc := forkScenario(fresh)
	fresh.Shutdown()

	batch := sim.NewBatch()
	s := New(batch.Engine(), topo, noBalance())
	snap := s.Snapshot()
	for round := 0; round < 3; round++ {
		gt, gc := forkScenario(s)
		if gt != ft || gc != fc {
			t.Fatalf("round %d diverged: time=%v switches=%d, fresh time=%v switches=%d",
				round, gt, gc, ft, fc)
		}
		s.Shutdown()
		s.Fork(snap)
		batch.Fork()
		if s.nextID != 0 || len(s.tasks) != 0 || s.liveTasks != 0 {
			t.Fatalf("round %d: fork left state: nextID=%d tasks=%d live=%d",
				round, s.nextID, len(s.tasks), s.liveTasks)
		}
		if batch.Engine().Now() != 0 || batch.Engine().Pending() != 0 {
			t.Fatalf("round %d: engine not rewound: now=%v pending=%d",
				round, batch.Engine().Now(), batch.Engine().Pending())
		}
	}
}

// TestForkAfterShutdownKeepsLiveEvent pins that Shutdown drops its
// balance-timer handle: a cancelled timer's struct is recycled at once, so
// a stale handle cancelled again by Fork would remove whichever live event
// reused the struct.
func TestForkAfterShutdownKeepsLiveEvent(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, machine.MustPreset(machine.TinyTest), Defaults())
	snap := s.Snapshot()
	s.SpawnSeq(TaskSpec{Name: "a"}, ReqCompute(9e9))
	eng.RunUntil(sim.Millisecond) // the balance timer is armed and pending
	s.Shutdown()
	fired := false
	eng.After(sim.Millisecond, func() { fired = true })
	s.Fork(snap)
	eng.Run()
	if !fired {
		t.Fatal("Fork after Shutdown cancelled an unrelated live event")
	}
}

// TestForkEmptiesMemGroup forks while memory streams are mid-segment: the
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

	batch := sim.NewBatch()
	s := New(batch.Engine(), topo, noBalance())
	snap := s.Snapshot()
	for i := 0; i < topo.NumCPUs(); i++ {
		s.SpawnSeq(TaskSpec{Name: "stream", Affinity: machine.SetOf(i)}, ReqMemory(1e12))
	}
	batch.Engine().RunUntil(sim.Millisecond)
	if len(s.memGroup) != topo.NumCPUs() || s.memTimer == nil {
		t.Fatalf("before fork: %d members, timer %v; want %d members and a timer",
			len(s.memGroup), s.memTimer, topo.NumCPUs())
	}
	s.Fork(snap)
	if len(s.memGroup) != 0 || s.memTimer != nil {
		t.Fatalf("after fork: %d members, timer %v; want none", len(s.memGroup), s.memTimer)
	}
	batch.Fork()
	if got := rep(s); got != want {
		t.Fatalf("rep after fork ended at %v, fresh at %v", got, want)
	}
}

// TestSchedulerForkMidRun kills an unfinished workload via Fork and checks
// the next rep still matches a fresh scheduler — the erroring-rep teardown
// path of the batch executor.
func TestSchedulerForkMidRun(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)

	fresh := New(sim.NewEngine(), topo, noBalance())
	ft, fc := forkScenario(fresh)
	fresh.Shutdown()

	batch := sim.NewBatch()
	s := New(batch.Engine(), topo, noBalance())
	snap := s.Snapshot()
	// Abort a run mid-flight: tasks are still queued or running.
	s.SpawnSeq(TaskSpec{Name: "doomed"}, ReqCompute(9e9))
	s.SpawnSeq(TaskSpec{Name: "doomed2", Affinity: machine.SetOf(1)}, ReqCompute(9e9))
	batch.Engine().RunUntil(sim.Millisecond)
	s.Shutdown()
	s.Fork(snap)
	batch.Fork()

	gt, gc := forkScenario(s)
	if gt != ft || gc != fc {
		t.Fatalf("post-abort rep diverged: time=%v switches=%d, fresh time=%v switches=%d",
			gt, gc, ft, fc)
	}
}

// TestSchedulerSnapshotAfterSpawnPanics pins the pristine-only contract.
func TestSchedulerSnapshotAfterSpawnPanics(t *testing.T) {
	s := newTiny(noBalance())
	s.SpawnSeq(TaskSpec{Name: "w"}, ReqCompute(1e6))
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot after Spawn did not panic")
		}
		s.Shutdown()
	}()
	s.Snapshot()
}

// TestTaskPoolRecyclesProgramTasks verifies inline-program task structs are
// recycled across forks: the second rep materializes no fresh tasks.
func TestTaskPoolRecyclesProgramTasks(t *testing.T) {
	topo := machine.MustPreset(machine.TinyTest)
	batch := sim.NewBatch()
	s := New(batch.Engine(), topo, noBalance())
	snap := s.Snapshot()

	runProg := func() {
		tk := s.SpawnSeq(TaskSpec{Name: "p"}, ReqCompute(3e6))
		s.eng.RunWhile(func() bool { return !tk.Done() })
		s.Shutdown()
		s.Fork(snap)
		batch.Fork()
	}
	runProg()
	allocs := s.TaskAllocs
	runProg()
	if s.TaskAllocs != allocs {
		t.Fatalf("second rep materialized %d fresh tasks, want 0 (pool holds the first rep's)",
			s.TaskAllocs-allocs)
	}
}

// TestForkResetsMemStreams forks a scheduler while tasks stream memory and
// checks the stream bookkeeping returns to its post-New value.
func TestForkResetsMemStreams(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, machine.MustPreset(machine.TinySMTTest), noBalance())
	snap := s.Snapshot()
	for i := 0; i < 3; i++ {
		s.SpawnSeq(TaskSpec{Name: "m"}, ReqMemory(1e12))
	}
	eng.RunUntil(sim.Millisecond)
	if s.memStreams != 3 {
		t.Fatalf("memStreams = %d before fork, want 3", s.memStreams)
	}
	checkMemStreams(t, s)
	s.Fork(snap)
	checkMemStreams(t, s)
	if !s.memCPUs.Empty() || s.memStreams != 0 {
		t.Fatalf("fork left streams: memCPUs=%v memStreams=%d", s.memCPUs, s.memStreams)
	}
}
