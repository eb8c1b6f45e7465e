package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestEnumStrings(t *testing.T) {
	if PolicyOther.String() != "SCHED_OTHER" || PolicyFIFO.String() != "SCHED_FIFO" {
		t.Fatal("policy strings")
	}
	if Policy(99).String() != "SCHED_?" {
		t.Fatal("unknown policy string")
	}
	kinds := map[Kind]string{
		KindWorkload: "workload", KindNoiseThread: "noise",
		KindInjector: "injector", KindOS: "os", Kind(42): "?",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	classes := map[NoiseClass]string{
		ClassIRQ: "irq_noise", ClassSoftIRQ: "softirq_noise",
		ClassThread: "thread_noise", NoiseClass(9): "?",
	}
	for c, want := range classes {
		if c.String() != want {
			t.Fatalf("class %d = %q", c, c.String())
		}
	}
}

func TestAccessors(t *testing.T) {
	s := newTiny(noBalance())
	if s.Engine() == nil || s.Topology() == nil {
		t.Fatal("accessors nil")
	}
	w := s.SpawnSeq(TaskSpec{Name: "w"}, ReqCompute(3e6))
	if w.State() != StateRunning && w.State() != StateRunnable {
		t.Fatalf("fresh task state %v", w.State())
	}
	runToDone(s, w)
	if w.State() != StateDone {
		t.Fatal("done state")
	}
	var ranOn int
	v := s.SpawnProgram(TaskSpec{Name: "v", Affinity: machine.SetOf(2)}, &script{
		func(tk *Task) Request {
			ranOn = tk.CPU()
			return ReqCompute(3e3)
		},
	})
	runToDone(s, v)
	if ranOn != 2 {
		t.Fatalf("Task.CPU() = %d, want 2", ranOn)
	}
	s.Shutdown()
}

func TestBarrierAccessors(t *testing.T) {
	b := NewBarrier(3)
	if b.N() != 3 || b.Generation() != 0 {
		t.Fatal("barrier accessors")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) should panic")
		}
	}()
	NewBarrier(0)
}

func TestSetPolicyNiceAffectsFairShare(t *testing.T) {
	s := newTiny(noBalance())
	aff := machine.SetOf(0)
	// Two tasks; one boosts itself to nice -15 mid-run.
	boosted := s.SpawnSeq(TaskSpec{Name: "boosted", Affinity: aff},
		ReqSetPolicy(PolicyOther, 0, -15), ReqCompute(3e8))
	normal := s.SpawnSeq(TaskSpec{Name: "normal", Affinity: aff}, ReqCompute(3e8))
	s.eng.RunUntil(100 * sim.Millisecond)
	if boosted.CPUTime <= normal.CPUTime {
		t.Fatalf("boosted nice should dominate: %v vs %v", boosted.CPUTime, normal.CPUTime)
	}
	s.Shutdown()
}

func TestInjectIRQValidation(t *testing.T) {
	s := newTiny(noBalance())
	defer s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range cpu should panic")
		}
	}()
	s.InjectIRQ(99, ClassIRQ, "x", sim.Millisecond)
}

func TestInjectIRQZeroDurationIgnored(t *testing.T) {
	s := newTiny(noBalance())
	w := s.SpawnSeq(TaskSpec{Name: "w", Affinity: machine.SetOf(0)}, ReqCompute(3e6))
	s.eng.At(100, func() { s.InjectIRQ(0, ClassIRQ, "x", 0) })
	got := runToDone(s, w)
	within(t, got, sim.Millisecond, 0.001, "zero-duration irq must not delay")
	s.Shutdown()
}

func TestKillQueuedTask(t *testing.T) {
	s := newTiny(noBalance())
	aff := machine.SetOf(0)
	hog := s.SpawnSeq(TaskSpec{Name: "hog", Affinity: aff}, ReqCompute(3e8))
	queued := s.SpawnSeq(TaskSpec{Name: "queued", Affinity: aff}, ReqCompute(3e6))
	s.eng.RunUntil(sim.Millisecond)
	if queued.State() != StateRunnable {
		t.Fatalf("expected queued task, got %v", queued.State())
	}
	s.Kill(queued)
	if !queued.Done() {
		t.Fatal("killed queued task should be done")
	}
	runToDone(s, hog)
	// Killing twice is a no-op.
	s.Kill(queued)
	s.Shutdown()
}

func TestThrottleWithSleepingFIFO(t *testing.T) {
	// A FIFO task that sleeps inside its window: throttleFire must re-arm
	// rather than throttle, because the budget was not actually consumed.
	opt := noBalance()
	opt.RTThrottle = true
	opt.RTRuntime = 20 * sim.Millisecond
	opt.RTPeriod = 100 * sim.Millisecond
	s := newTiny(opt)
	aff := machine.SetOf(0)
	rt := s.SpawnSeq(TaskSpec{Name: "rt", Policy: PolicyFIFO, RTPrio: 10, Affinity: aff},
		ReqCompute(30e6), // 10ms
		ReqSleep(50*sim.Millisecond),
		ReqCompute(30e6)) // another 10ms: total 20ms, exactly the budget
	got := runToDone(s, rt)
	// 10ms run + 50ms sleep + 10ms run = 70ms, no throttling.
	within(t, got, 70*sim.Millisecond, 0.02, "sleeping FIFO not throttled")
	s.Shutdown()
}

func TestThrottleWindowRollover(t *testing.T) {
	opt := noBalance()
	opt.RTThrottle = true
	opt.RTRuntime = 10 * sim.Millisecond
	opt.RTPeriod = 50 * sim.Millisecond
	s := newTiny(opt)
	aff := machine.SetOf(0)
	// 30ms of FIFO work: windows of 10ms run + 40ms throttled.
	rt := s.SpawnSeq(TaskSpec{Name: "rt", Policy: PolicyFIFO, RTPrio: 10, Affinity: aff},
		ReqCompute(90e6))
	got := runToDone(s, rt)
	// Runs 0-10, 50-60, 100-110 -> done at 110ms.
	within(t, got, 110*sim.Millisecond, 0.05, "throttle window rollover")
	s.Shutdown()
}

func TestSpawnNilBodyPanics(t *testing.T) {
	s := newTiny(noBalance())
	defer s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("nil program should panic")
		}
	}()
	s.SpawnProgram(TaskSpec{Name: "bad"}, nil)
}

func TestBarrierNilPanics(t *testing.T) {
	s := newTiny(noBalance())
	// The program runs immediately at spawn (engine context); the nil
	// barrier must panic on the engine side.
	defer func() {
		if recover() == nil {
			t.Fatal("nil barrier should panic")
		}
		s.Shutdown()
	}()
	s.SpawnSeq(TaskSpec{Name: "w"}, ReqBarrier(nil, false))
}

func TestMemoryTaskPreemptedReleasesBandwidth(t *testing.T) {
	s := newTiny(noBalance()) // 20 GB/s machine, 10 GB/s per core
	aff0 := machine.SetOf(0)
	// Two streaming tasks on different CPUs: each gets 10 GB/s.
	m1 := s.SpawnSeq(TaskSpec{Name: "m1", Affinity: aff0}, ReqMemory(100e6))
	m2 := s.SpawnSeq(TaskSpec{Name: "m2", Affinity: machine.SetOf(1)}, ReqMemory(100e6))
	// At 2ms, FIFO noise preempts m1 for 5ms: m2 should then stream at
	// full core rate (10 GB/s), unaffected; m1 finishes late.
	s.eng.At(2*sim.Millisecond, func() {
		s.SpawnSeq(TaskSpec{Name: "noise", Policy: PolicyFIFO, RTPrio: 5, Affinity: aff0},
			computeDur(s, 5*sim.Millisecond))
	})
	runToDone(s, m2)
	within(t, s.eng.Now(), 10*sim.Millisecond, 0.05, "unpreempted stream")
	runToDone(s, m1)
	within(t, s.eng.Now(), 15*sim.Millisecond, 0.05, "preempted stream delayed by noise")
	s.Shutdown()
}
