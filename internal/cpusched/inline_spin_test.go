package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// The §4 active-wait pathology: a spinning barrier waiter preempted by FIFO
// noise must burn CPU only while it actually holds the CPU, and a barrier
// release that lands while the spinner is preempted must clear the spin
// without granting it CPU time.

func TestInlineSpinnerPreemptedByFIFO(t *testing.T) {
	s := newTiny(noBalance())
	b := NewBarrier(2)
	spinner := s.SpawnSeq(TaskSpec{Name: "spinner", Kind: KindWorkload,
		Affinity: machine.SetOf(0)}, ReqBarrier(b, true))
	// FIFO noise preempts the spinner at 10ms and computes for 20ms.
	noise := s.SpawnSeq(TaskSpec{Name: "noise", Kind: KindNoiseThread,
		Policy: PolicyFIFO, RTPrio: 50, Affinity: machine.SetOf(0)},
		ReqSleepUntil(10*sim.Millisecond), ReqCompute(60e6))
	late := s.SpawnSeq(TaskSpec{Name: "late", Kind: KindWorkload,
		Affinity: machine.SetOf(1)},
		ReqSleepUntil(50*sim.Millisecond), ReqBarrier(b, true))
	s.eng.Run()
	if !spinner.Done() || !noise.Done() || !late.Done() {
		t.Fatal("tasks did not finish")
	}
	within(t, s.eng.Now(), 50*sim.Millisecond, 0.001, "release time")
	// Spin split: 0-10ms and 30-50ms on CPU, not the 20ms spent preempted.
	within(t, spinner.CPUTime, 30*sim.Millisecond, 0.001, "spinner CPU time")
	within(t, noise.CPUTime, 20*sim.Millisecond, 0.001, "noise CPU time")
	if s.InlineDispatches == 0 {
		t.Fatal("InlineDispatches = 0, want > 0")
	}
	s.Shutdown()
}

func TestInlineSpinnerReleasedWhilePreempted(t *testing.T) {
	s := newTiny(noBalance())
	b := NewBarrier(2)
	spinner := s.SpawnSeq(TaskSpec{Name: "spinner", Kind: KindWorkload,
		Affinity: machine.SetOf(0)}, ReqBarrier(b, true))
	noise := s.SpawnSeq(TaskSpec{Name: "noise", Kind: KindNoiseThread,
		Policy: PolicyFIFO, RTPrio: 50, Affinity: machine.SetOf(0)},
		ReqSleepUntil(10*sim.Millisecond), ReqCompute(60e6))
	// Last arriver hits the barrier at 25ms, while the spinner is preempted
	// (noise runs 10-30ms). The spinner's pending spin must be cleared; it
	// completes when redispatched after the noise burst, having burned only
	// its pre-preemption 10ms.
	late := s.SpawnSeq(TaskSpec{Name: "late", Kind: KindWorkload,
		Affinity: machine.SetOf(1)},
		ReqSleepUntil(25*sim.Millisecond), ReqBarrier(b, true))
	var spinnerEnd, lateEnd sim.Time
	spinner.OnDone(func() { spinnerEnd = s.Now() })
	late.OnDone(func() { lateEnd = s.Now() })
	s.eng.Run()
	if !spinner.Done() || !noise.Done() || !late.Done() {
		t.Fatal("tasks did not finish")
	}
	if b.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", b.Generation())
	}
	within(t, lateEnd, 25*sim.Millisecond, 0.001, "last arriver end")
	within(t, spinnerEnd, 30*sim.Millisecond, 0.001, "preempted spinner end")
	within(t, spinner.CPUTime, 10*sim.Millisecond, 0.001, "spinner CPU time")
	s.Shutdown()
}
