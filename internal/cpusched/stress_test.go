package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// stressScenario runs a randomized mix of tasks (policies, affinities,
// sleeps, barriers, irqs) and returns the scheduler for invariant checks.
// The memory-stream bookkeeping and the stream group are checked after
// every engine step.
func stressScenario(t testing.TB, seed uint64, topoName string) (*Scheduler, sim.Time) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(topoName)
	s := New(eng, topo, Defaults())
	rng := sim.NewRNG(seed)
	ncpu := topo.NumCPUs()

	nBar := 2 + rng.Intn(3)
	bars := make([]*Barrier, 0, nBar)
	// Barrier participants must all exist, or the run deadlocks; count
	// subscribers first.
	type plan struct {
		policy   Policy
		rtprio   int
		affinity machine.CPUSet
		segs     int
		barrier  int // -1 = none
		spin     bool
		mem      bool
		sleep    sim.Time
	}
	nTasks := 4 + rng.Intn(8)
	plans := make([]plan, nTasks)
	barUsers := make([]int, nBar)
	for i := range plans {
		p := plan{
			segs:    1 + rng.Intn(5),
			barrier: -1,
			mem:     rng.Bool(0.3),
			sleep:   sim.Time(rng.Intn(3)) * sim.Millisecond,
		}
		if rng.Bool(0.2) {
			p.policy = PolicyFIFO
			p.rtprio = 1 + rng.Intn(90)
		}
		if rng.Bool(0.5) {
			p.affinity = machine.SetOf(rng.Intn(ncpu))
		}
		// Only fair tasks join barriers: a SCHED_FIFO task spinning at a
		// barrier would starve a pinned fair participant forever — real
		// RT priority inversion, deliberately out of scope here (the RT
		// throttle fail-safe exists for exactly that).
		if p.policy == PolicyOther && rng.Bool(0.4) {
			p.barrier = rng.Intn(nBar)
			p.spin = rng.Bool(0.5)
			barUsers[p.barrier]++
		}
		plans[i] = p
	}
	for b := 0; b < nBar; b++ {
		if barUsers[b] > 0 {
			bars = append(bars, NewBarrier(barUsers[b]))
		} else {
			bars = append(bars, nil)
		}
	}

	var tasks []*Task
	for i, p := range plans {
		p := p
		i := i
		var reqs []Request
		if p.sleep > 0 {
			reqs = append(reqs, ReqSleep(p.sleep))
		}
		for k := 0; k < p.segs; k++ {
			if p.mem {
				reqs = append(reqs, ReqMemory(float64(1+i%4)*1e6))
			} else {
				reqs = append(reqs, ReqCompute(float64(1+i%4)*1e6))
			}
			if k == 0 && p.barrier >= 0 {
				reqs = append(reqs, ReqBarrier(bars[p.barrier], p.spin))
			}
		}
		tasks = append(tasks, s.SpawnSeq(TaskSpec{
			Name:     "stress",
			Policy:   p.policy,
			RTPrio:   p.rtprio,
			Affinity: p.affinity,
			Kind:     KindWorkload,
		}, reqs...))
	}
	// Random irq storm.
	for k := 0; k < 20; k++ {
		at := sim.Time(rng.Intn(10)) * sim.Millisecond
		cpu := rng.Intn(ncpu)
		dur := sim.Time(1+rng.Intn(200)) * sim.Microsecond
		eng.At(at, func() { s.InjectIRQ(cpu, ClassIRQ, "stress-irq", dur) })
	}
	// Bound simulated time so a genuine scheduler deadlock fails the test
	// instead of hanging it.
	const deadline = 10 * sim.Second
	eng.RunWhile(func() bool {
		checkMemStreams(t, s)
		checkMemGroup(t, s)
		if eng.Now() > deadline {
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
// memory, memStreams is its size, and memRate is the topology's rate for
// that many streams.
func checkMemStreams(t testing.TB, s *Scheduler) {
	t.Helper()
	var want machine.CPUSet
	for _, c := range s.cpus {
		if c.curr != nil && c.curr.streamActive {
			want = want.Set(c.id)
		}
	}
	if s.memCPUs != want || s.memStreams != want.Count() || s.memRate != s.topo.MemRate(s.memStreams) {
		t.Fatalf("at %v: memCPUs=%v memStreams=%d memRate=%v, want CPUs %v, %d streams, rate %v",
			s.eng.Now(), s.memCPUs, s.memStreams, s.memRate, want, want.Count(), s.topo.MemRate(want.Count()))
	}
}

// checkMemGroup checks the stream group against the tasks: its members are
// exactly the running memory-segment tasks whose rate is above 0 (so never
// a spin), each sits at the slot its memIdx names and holds no timer of its
// own, and the group timer carries the smallest member key, or is nil when
// the group is empty.
func checkMemGroup(t testing.TB, s *Scheduler) {
	t.Helper()
	now := s.eng.Now()
	for i, m := range s.memGroup {
		if m.t.memIdx != i {
			t.Fatalf("at %v: slot %d holds %q with memIdx %d", now, i, m.t.Name, m.t.memIdx)
		}
		if m.at < now || m.t.completion != nil {
			t.Fatalf("at %v: member %q keyed at %v, own timer %v", now, m.t.Name, m.at, m.t.completion)
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
	first := s.memGroup[0]
	for _, m := range s.memGroup[1:] {
		if m.at < first.at || (m.at == first.at && m.seq < first.seq) {
			first = m
		}
	}
	if !s.memTimer.Pending() {
		t.Fatalf("at %v: group of %d has no pending timer", now, len(s.memGroup))
	}
	if at, seq := s.memTimer.Key(); at != first.at || seq != first.seq {
		t.Fatalf("at %v: group timer keyed (%v, %d), earliest member (%v, %d)",
			now, at, seq, first.at, first.seq)
	}
}

// TestStressInvariants runs many random scenarios and checks global
// invariants: every task finishes (no lost wakeups or deadlocks), CPU time
// is conserved (no CPU is over-committed), and nothing panics.
func TestStressInvariants(t *testing.T) {
	for _, topoName := range []string{machine.TinyTest, machine.TinySMTTest} {
		topo := machine.MustPreset(topoName)
		for seed := uint64(0); seed < 40; seed++ {
			s, end := stressScenario(t, seed, topoName)
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

// TestStressDeterministic replays scenarios and demands bit-identical
// outcomes.
func TestStressDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		s1, end1 := stressScenario(t, seed, machine.TinySMTTest)
		s2, end2 := stressScenario(t, seed, machine.TinySMTTest)
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
		s, _ := stressScenario(t, seed, machine.TinyTest)
		s.Shutdown()
		for _, tk := range s.Tasks() {
			if !tk.Done() {
				t.Fatal("undead task after shutdown")
			}
		}
	}
}
