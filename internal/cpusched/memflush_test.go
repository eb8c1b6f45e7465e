package cpusched

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestStreamWalkWaitsForPendingSteal pins the pending-steal precondition
// of walk deferral. A task that resumes a memory segment on a new CPU
// starts its stream there before its migration penalty is added. When the
// CPU still owes tracing overhead, the full walk charges that overhead
// first and the penalty second; a deferred walk would leave both to the
// task's own refresh, which adds them the other way round. The test picks
// a remaining demand for which the two float sums differ, and so fails
// if the walk is deferred.
func TestStreamWalkWaitsForPendingSteal(t *testing.T) {
	const (
		steal = 1500
		mig   = 20 * sim.Microsecond
		at    = 50 * sim.Microsecond
	)
	eng := sim.NewEngine()
	opt := noBalance()
	opt.MigrationCost = mig
	opt.TraceOverhead = steal
	s := New(eng, machine.MustPreset(machine.TinyTest), opt)
	s.SetTracer(nopHook{})
	spec := func(cpu int) TaskSpec {
		return TaskSpec{Name: "w", Kind: KindWorkload, Affinity: machine.SetOf(cpu)}
	}
	s.SpawnSeq(spec(0), ReqMemory(1e12))
	// Its run record leaves the tracing overhead owed on CPU 2.
	s.SpawnSeq(spec(2), computeDur(s, 5*sim.Microsecond))
	// It starts streaming at `at`: the instant's first, full walk.
	s.SpawnSeq(spec(3), ReqSleep(at), ReqMemory(1e12))

	// The sums round differently where one of them crosses a power of two
	// that the other does not; search just below one.
	r := s.topo.MemRate(3)
	rem := float64(1<<20) - steal*r - 50
	for (rem+steal*r)+float64(mig)*r == (rem+float64(mig)*r)+steal*r {
		if rem += 0.37; rem > 1<<20 {
			t.Fatal("no remaining demand separates the two charge orders")
		}
	}
	var b *Task
	eng.At(at, func() {
		if s.walkAt != at || s.cpus[2].pendingSteal != steal {
			t.Fatalf("setup: walk at %v, CPU 2 owes %v", s.walkAt, s.cpus[2].pendingSteal)
		}
		// A task preempted on CPU 1 mid-stream resumes on CPU 2.
		b = s.newTask(TaskSpec{Name: "b", Kind: KindWorkload, Affinity: machine.SetOf(1, 2)})
		b.prog = &seqProgram{}
		s.tasks = append(s.tasks, b)
		s.liveTasks++
		b.seg = segment{kind: segMemory}
		b.remaining = rem
		b.lastRunCPU, b.cpu, b.state = 1, 2, StateRunnable
		rerates := s.MemRerates
		s.dispatch(s.cpus[2], b)
		if want := (rem + steal*r) + float64(mig)*r; b.remaining != want {
			t.Fatalf("remaining %x, want %x: steal and migration penalty charged out of order",
				math.Float64bits(b.remaining), math.Float64bits(want))
		}
		if s.flush.pending || s.MemRerates != rerates+3 {
			t.Fatalf("walk deferred (pending=%v, %d re-rates): CPU 2 owed tracing overhead",
				s.flush.pending, s.MemRerates-rerates)
		}
	})
	eng.RunUntil(at)
	if b == nil {
		t.Fatal("resume event did not run")
	}
	s.Shutdown()
}

// TestStreamWalkDefersStorm checks that the storm fixture's barrier
// releases defer walks, so its key traces cover the flush, and that no
// flush is left pending once the engine drains.
func TestStreamWalkDefersStorm(t *testing.T) {
	eng, scheds, _ := buildStorm(1, false)()
	eng.Run()
	if s := scheds[0]; s.memEpoch == 0 || s.flush.pending {
		t.Fatalf("deferred %d walks, flush pending %v", s.memEpoch, s.flush.pending)
	}
}
