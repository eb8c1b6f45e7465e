package cpusched

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// stressScenario runs the randomized stress world of buildStress and
// returns the scheduler for invariant checks. The memory-stream
// bookkeeping and the stream group are checked after every engine step.
func stressScenario(t testing.TB, seed uint64, topoName string, traced bool) (*Scheduler, sim.Time) {
	eng, s, tasks := buildStress(seed, topoName, traced)
	eng.RunWhile(func() bool {
		checkMemStreams(t, s)
		checkMemGroup(t, s)
		if eng.Now() > stressDeadline {
			return false
		}
		for _, t := range tasks {
			if !t.Done() {
				return true
			}
		}
		return false
	})
	return s, eng.Now()
}

// checkMemStreams checks the scheduler's memory-stream bookkeeping against
// its CPUs: memCPUs is exactly the set of CPUs whose current task streams
// memory, each of them on a memory segment, memStreams is its size, and
// memRate is the topology's rate for that many streams. irqCPUs and
// stealCPUs mirror the CPUs in interrupt context and those owing tracing
// overhead, and every CPU in dueCPUs holds a member keyed to complete now.
func checkMemStreams(t testing.TB, s *Scheduler) {
	t.Helper()
	now := s.eng.Now()
	var want, irq, steal machine.CPUSet
	for _, c := range s.cpus {
		if c.curr != nil && c.curr.streamActive {
			if c.curr.seg.kind != segMemory {
				t.Fatalf("at %v: CPU %d streams on segment kind %d", now, c.id, c.curr.seg.kind)
			}
			want = want.Set(c.id)
		}
		if c.inIRQ {
			irq = irq.Set(c.id)
		}
		if c.pendingSteal > 0 {
			steal = steal.Set(c.id)
		}
	}
	if s.memCPUs != want || s.memStreams != want.Count() || s.memRate != s.topo.MemRate(s.memStreams) {
		t.Fatalf("at %v: memCPUs=%v memStreams=%d memRate=%v, want CPUs %v, %d streams, rate %v",
			now, s.memCPUs, s.memStreams, s.memRate, want, want.Count(), s.topo.MemRate(want.Count()))
	}
	if s.irqCPUs != irq || s.stealCPUs != steal {
		t.Fatalf("at %v: irqCPUs=%v stealCPUs=%v, want %v and %v", now, s.irqCPUs, s.stealCPUs, irq, steal)
	}
	for cpu := s.dueCPUs.First(); cpu >= 0; cpu = s.dueCPUs.NextFrom(cpu + 1) {
		if c := s.cpus[cpu]; c.curr == nil || c.curr.memIdx < 0 || s.memGroup[c.curr.memIdx].at != now {
			t.Fatalf("at %v: CPU %d is marked due without a member due now", now, cpu)
		}
	}
}

// checkMemGroup checks the stream group against the tasks: its members are
// exactly the running memory-segment tasks whose rate is above 0 (so never
// a spin), each sits at the slot its memIdx names and holds no timer of its
// own, and the group timer carries the smallest member key, or is nil when
// the group is empty.
//
// It also checks walk deferral. A flush is pending only at the instant of
// the full walk its deferred walk followed. The keys the flush will write
// are known where they matter: a stale member due now gets (now, reserved
// base + its CPU's rank in the walk), and every other stale member
// completes after now. So the group timer must carry the smallest of
// those keys that falls now, and lie after now when none does. With no
// flush pending every member runs at memRate and carries the key the key
// formula gives at its last accounting.
func checkMemGroup(t testing.TB, s *Scheduler) {
	t.Helper()
	now := s.eng.Now()
	if s.flush.pending && s.walkAt != now {
		t.Fatalf("at %v: flush pending since a walk at %v", now, s.walkAt)
	}
	if !s.staleDue.Minus(s.dueCPUs.And(s.flush.cpus)).Empty() ||
		(!s.flush.pending && !s.staleDue.Empty()) {
		t.Fatalf("at %v: stale due CPUs %v, due %v, flush pending %v over %v",
			now, s.staleDue, s.dueCPUs, s.flush.pending, s.flush.cpus)
	}
	var first memMember // smallest key that falls now
	for i, m := range s.memGroup {
		tk := m.t
		if tk.memIdx != i {
			t.Fatalf("at %v: slot %d holds %q with memIdx %d", now, i, tk.Name, tk.memIdx)
		}
		if m.at < now || tk.completion != nil {
			t.Fatalf("at %v: member %q keyed at %v, own timer %v", now, tk.Name, m.at, tk.completion)
		}
		stale := s.flush.pending && tk.memEpoch < s.memEpoch
		switch {
		case stale && s.staleDue.Has(tk.cpu):
			if m.at != now {
				t.Fatalf("at %v: stale member %q marked due, keyed at %v", now, tk.Name, m.at)
			}
			m.seq = s.flush.base + uint64(s.flush.cpus.And(machine.AllCPUs(tk.cpu)).Count())
		case stale:
			if m.at <= now {
				t.Fatalf("at %v: stale member %q due at %v, not marked due", now, tk.Name, m.at)
			}
		case !s.flush.pending:
			at := tk.lastAccount
			if tk.remaining > 0 {
				at += sim.Time(math.Ceil(tk.remaining / tk.rate))
			}
			if tk.rate != s.memRate || m.at != at {
				t.Fatalf("at %v: member %q at rate %v keyed at %v, want rate %v, key at %v",
					now, tk.Name, tk.rate, m.at, s.memRate, at)
			}
		}
		if m.at == now && (first.t == nil || m.seq < first.seq) {
			first = m
		}
	}
	members := 0
	for _, tk := range s.tasks {
		want := tk.state == StateRunning && tk.seg.kind == segMemory && tk.rate > 0
		if got := tk.memIdx >= 0; got != want {
			t.Fatalf("at %v: task %q (state %d, seg %d, rate %v) member=%v, want %v",
				now, tk.Name, tk.state, tk.seg.kind, tk.rate, got, want)
		}
		if want {
			members++
		}
	}
	if members != len(s.memGroup) {
		t.Fatalf("at %v: group holds %d members, %d tasks qualify", now, len(s.memGroup), members)
	}
	if len(s.memGroup) == 0 {
		if s.memTimer != nil {
			t.Fatalf("at %v: empty group keeps a timer", now)
		}
		return
	}
	if !s.flush.pending {
		first = s.memGroup[0]
		for _, m := range s.memGroup[1:] {
			if m.at < first.at || (m.at == first.at && m.seq < first.seq) {
				first = m
			}
		}
	}
	if !s.memTimer.Pending() {
		t.Fatalf("at %v: group of %d has no pending timer", now, len(s.memGroup))
	}
	at, seq := s.memTimer.Key()
	if first.t == nil {
		if at <= now {
			t.Fatalf("at %v: no member due now, group timer keyed (%v, %d)", now, at, seq)
		}
	} else if at != first.at || seq != first.seq {
		t.Fatalf("at %v: group timer keyed (%v, %d), earliest member (%v, %d)",
			now, at, seq, first.at, first.seq)
	}
}

// TestStressInvariants runs many random scenarios, with and without a
// tracer stealing CPU time, and checks global invariants: every task
// finishes (no lost wakeups or deadlocks), CPU time is conserved (no CPU
// is over-committed), and nothing panics.
func TestStressInvariants(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, topoName := range []string{machine.TinyTest, machine.TinySMTTest} {
			topo := machine.MustPreset(topoName)
			for seed := uint64(0); seed < 40; seed++ {
				s, end := stressScenario(t, seed, topoName, traced)
				total := sim.Time(0)
				for _, tk := range s.Tasks() {
					if !tk.Done() {
						t.Fatalf("seed %d on %s: task %q never finished (deadlock)", seed, topoName, tk.Name)
					}
					if tk.CPUTime < 0 {
						t.Fatalf("seed %d: negative CPU time", seed)
					}
					total += tk.CPUTime
				}
				// Conservation: aggregate CPU time cannot exceed wall time x
				// number of logical CPUs.
				if cap := end * sim.Time(topo.NumCPUs()); total > cap {
					t.Fatalf("seed %d on %s: CPU time %v exceeds capacity %v", seed, topoName, total, cap)
				}
				s.Shutdown()
			}
		}
	}
}

// TestStressDeterministic replays scenarios and demands bit-identical
// outcomes.
func TestStressDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		s1, end1 := stressScenario(t, seed, machine.TinySMTTest, false)
		s2, end2 := stressScenario(t, seed, machine.TinySMTTest, false)
		if end1 != end2 {
			t.Fatalf("seed %d: end times differ: %v vs %v", seed, end1, end2)
		}
		if s1.ContextSwitches != s2.ContextSwitches {
			t.Fatalf("seed %d: context switches differ", seed)
		}
		for i := range s1.Tasks() {
			a, b := s1.Tasks()[i], s2.Tasks()[i]
			if a.CPUTime != b.CPUTime || a.Migrations != b.Migrations {
				t.Fatalf("seed %d task %d: per-task stats differ", seed, i)
			}
		}
		s1.Shutdown()
		s2.Shutdown()
	}
}

// TestStressGoroutineHygiene ensures Shutdown reaps every task goroutine
// even under chaotic scenarios (no leak growth across many scenarios).
func TestStressGoroutineHygiene(t *testing.T) {
	for seed := uint64(100); seed < 130; seed++ {
		s, _ := stressScenario(t, seed, machine.TinyTest, false)
		s.Shutdown()
		for _, tk := range s.Tasks() {
			if !tk.Done() {
				t.Fatal("undead task after shutdown")
			}
		}
	}
}
