package parmodel

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/sim"
)

func newSched() *cpusched.Scheduler {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest) // 4 cpus, 3 GHz
	opt := cpusched.Defaults()
	opt.MigrationCost = 0
	return cpusched.New(eng, topo, opt)
}

func uniform(cycles float64) func(int) Cost {
	return func(int) Cost { return Cost{Cycles: cycles} }
}

// runBody executes body under the given strategy/config and returns the
// wall time.
func runBody(t *testing.T, s *cpusched.Scheduler, strat mitigate.Strategy, cfg Config, body Body) sim.Time {
	t.Helper()
	plan := mitigate.MustApply(strat, s.Topology())
	master := Start(s, plan, Compile(body, plan.Threads, cfg))
	s.Engine().RunWhile(func() bool { return !master.Done() })
	end := s.Engine().Now()
	s.Engine().RunUntil(end + sim.Millisecond) // let workers park/exit
	s.Shutdown()
	return end
}

// noiseOnCPU3 spawns a FIFO noise thread of length d on CPU 3 at 2ms.
func noiseOnCPU3(s *cpusched.Scheduler, d sim.Time) {
	s.Engine().At(2*sim.Millisecond, func() {
		s.SpawnSeq(cpusched.TaskSpec{
			Name: "noise", Kind: cpusched.KindNoiseThread,
			Policy: cpusched.PolicyFIFO, RTPrio: 50,
			Affinity: machine.SetOf(3),
		}, cpusched.ReqCompute(float64(d)*s.Topology().CyclesPerNs()))
	})
}

// bareSYCL is the SYCL preset without its overheads and efficiency gap.
func bareSYCL() Config {
	cfg := SYCL()
	cfg.CostFactor = 1.0
	cfg.ForkOverhead = 0
	cfg.DispatchOverhead = 0
	return cfg
}

func TestStaticSpeedup(t *testing.T) {
	s := newSched()
	// 120M cycles over 4 threads = 30M cycles each = 10ms at 3 GHz.
	got := runBody(t, s, mitigate.TP, OpenMP(), func(m Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got < 10*sim.Millisecond || got > 11*sim.Millisecond {
		t.Fatalf("4-thread static region took %v, want ~10ms", got)
	}
}

func TestKernelSpeedup(t *testing.T) {
	s := newSched()
	got := runBody(t, s, mitigate.TP, bareSYCL(), func(m Model) {
		m.ParallelFor(4, uniform(30e6)) // 10ms per thread
	})
	if got < 10*sim.Millisecond || got > 11*sim.Millisecond {
		t.Fatalf("kernel took %v, want ~10ms", got)
	}
}

// TestWorkConservation: every OpenMP schedule and chunk size executes
// each unit exactly once.
func TestWorkConservation(t *testing.T) {
	for _, schedKind := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3} {
			cfg := OpenMP()
			cfg.Schedule, cfg.Chunk = schedKind, chunk
			checkWorkConserved(t, cfg)
		}
	}
}

// TestSYCLWorkConservation: every SYCL work-group size executes each unit
// exactly once.
func TestSYCLWorkConservation(t *testing.T) {
	for _, wg := range []int{1, 3, 7} {
		cfg := SYCL()
		cfg.Chunk = wg
		checkWorkConserved(t, cfg)
	}
}

func checkWorkConserved(t *testing.T, cfg Config) {
	t.Helper()
	s := newSched()
	const n = 97
	seen := make([]int, n)
	runBody(t, s, mitigate.TP, cfg, func(m Model) {
		m.ParallelFor(n, func(i int) Cost {
			seen[i]++
			return Cost{Cycles: 1e5}
		})
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s %v chunk=%d: unit %d executed %d times",
				flavours[cfg.flavour].name, cfg.Schedule, cfg.Chunk, i, c)
		}
	}
}

func TestMultipleRegions(t *testing.T) {
	s := newSched()
	regions := 0
	runBody(t, s, mitigate.TP, OpenMP(), func(m Model) {
		for r := 0; r < 10; r++ {
			m.ParallelFor(8, uniform(3e5))
			regions++
		}
		m.MasterCompute(3e6)
	})
	if regions != 10 {
		t.Fatalf("regions = %d", regions)
	}
}

func TestStaticStragglerSensitivity(t *testing.T) {
	// A 50ms FIFO noise burst on one pinned CPU delays a static region by
	// the full 50ms (straggler holds the end barrier).
	run := func(noise bool) sim.Time {
		s := newSched()
		if noise {
			noiseOnCPU3(s, 50*sim.Millisecond)
		}
		return runBody(t, s, mitigate.TP, OpenMP(), func(m Model) {
			m.ParallelFor(4, uniform(60e6)) // 20ms/thread
		})
	}
	clean := run(false)
	noisy := run(true)
	delta := noisy - clean
	if delta < 45*sim.Millisecond || delta > 55*sim.Millisecond {
		t.Fatalf("static straggler delta = %v, want ~50ms", delta)
	}
}

func TestDynamicAbsorbsStraggler(t *testing.T) {
	// The same noise under a fine-grained dynamic schedule is mostly
	// absorbed: the delayed thread just claims fewer chunks.
	run := func(schedKind Schedule) sim.Time {
		s := newSched()
		noiseOnCPU3(s, 50*sim.Millisecond)
		cfg := OpenMP()
		cfg.Schedule = schedKind
		cfg.Chunk = 1
		return runBody(t, s, mitigate.TP, cfg, func(m Model) {
			m.ParallelFor(400, uniform(6e5)) // 80ms of work in 0.2ms units
		})
	}
	static := run(Static)
	dynamic := run(Dynamic)
	if dynamic >= static {
		t.Fatalf("dynamic (%v) should absorb noise better than static round-robin (%v)", dynamic, static)
	}
}

func TestNoiseResilienceVsOMPStatic(t *testing.T) {
	// Identical work and identical 40ms FIFO noise on CPU 3: the SYCL
	// queue (dynamic work-groups) must degrade less than OpenMP static.
	run := func(cfg Config) sim.Time {
		s := newSched()
		noiseOnCPU3(s, 40*sim.Millisecond)
		return runBody(t, s, mitigate.TP, cfg, func(m Model) {
			m.ParallelFor(400, uniform(6e5)) // 80ms total in 0.2ms units
		})
	}
	sycl := SYCL()
	sycl.CostFactor = 1.0
	sycl.ForkOverhead = 0
	syclNoisy, ompNoisy := run(sycl), run(OpenMP())
	if syclNoisy >= ompNoisy {
		t.Fatalf("SYCL under noise (%v) should beat OMP-static under noise (%v)", syclNoisy, ompNoisy)
	}
}

// singleThread runs body on a one-thread plan and returns its wall time.
func singleThread(t *testing.T, cfg Config, body Body) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	s := cpusched.New(eng, machine.MustPreset(machine.TinyTest), cpusched.Defaults())
	plan := &mitigate.Plan{Strategy: mitigate.TP, Threads: 1,
		Allowed: machine.SetOf(0), PinCPUOf: []int{0}}
	master := Start(s, plan, Compile(body, plan.Threads, cfg))
	eng.RunWhile(func() bool { return !master.Done() })
	s.Shutdown()
	return eng.Now()
}

func TestSingleThreadPlan(t *testing.T) {
	now := singleThread(t, OpenMP(), func(m Model) {
		if m.Threads() != 1 {
			t.Error("Threads() != 1")
		}
		m.ParallelFor(10, uniform(3e6)) // 10ms serial
	})
	if now < 10*sim.Millisecond || now > 11*sim.Millisecond {
		t.Fatalf("single-thread region took %v", now)
	}
}

func TestSingleThread(t *testing.T) {
	now := singleThread(t, bareSYCL(), func(m Model) {
		m.ParallelFor(3, uniform(3e6)) // 3ms serial
	})
	if now < 3*sim.Millisecond || now > 4*sim.Millisecond {
		t.Fatalf("single-thread kernel took %v", now)
	}
}

// TestWorkersExitAfterBody: every OpenMP worker exits once the master
// finishes the body.
func TestWorkersExitAfterBody(t *testing.T) {
	checkWorkersExit(t, OpenMP())
}

// TestSYCLWorkersExitAfterBody: every SYCL worker exits once the host
// finishes the body.
func TestSYCLWorkersExitAfterBody(t *testing.T) {
	checkWorkersExit(t, SYCL())
}

func checkWorkersExit(t *testing.T, cfg Config) {
	t.Helper()
	s := newSched()
	plan := mitigate.MustApply(mitigate.TP, s.Topology())
	master := Start(s, plan, Compile(func(m Model) {
		m.ParallelFor(8, uniform(1e6))
	}, plan.Threads, cfg))
	s.Engine().Run()
	if !master.Done() {
		t.Fatal("master not done")
	}
	tasks := s.Tasks()
	if len(tasks) != plan.Threads {
		t.Fatalf("%d tasks, want %d", len(tasks), plan.Threads)
	}
	for _, w := range tasks {
		if !w.Done() {
			t.Fatalf("%s did not exit after the master finished", w.Name)
		}
	}
	s.Shutdown()
}

func TestMemoryCostsFlowThrough(t *testing.T) {
	s := newSched() // 20 GB/s total, 10 GB/s per core
	got := runBody(t, s, mitigate.TP, OpenMP(), func(m Model) {
		// 4 threads streaming 50 MB each: 200 MB at 20 GB/s = 10ms.
		m.ParallelFor(4, func(int) Cost { return Cost{Bytes: 50e6} })
	})
	if got < 10*sim.Millisecond || got > 12*sim.Millisecond {
		t.Fatalf("memory-bound region took %v, want ~10ms", got)
	}
}

func TestMasterComputeAndMemory(t *testing.T) {
	s := newSched()
	cfg := SYCL()
	cfg.CostFactor = 1.0
	got := runBody(t, s, mitigate.TP, cfg, func(m Model) {
		m.MasterCompute(3e6) // 1ms
		m.MasterMemory(10e6) // 1ms at 10 GB/s core cap
	})
	if got < 2*sim.Millisecond || got > 3*sim.Millisecond {
		t.Fatalf("host serial work took %v, want ~2ms", got)
	}
}

func TestCostFactorScales(t *testing.T) {
	base := func(f float64) sim.Time {
		s := newSched()
		cfg := OpenMP()
		cfg.CostFactor = f
		return runBody(t, s, mitigate.TP, cfg, func(m Model) {
			m.ParallelFor(4, uniform(30e6))
		})
	}
	t1, t2 := base(1.0), base(1.5)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.4 || ratio > 1.6 {
		t.Fatalf("cost factor 1.5 produced ratio %.3f", ratio)
	}
}

func TestCostFactorMakesSYCLSlowerThanOMP(t *testing.T) {
	// Same work, default configs: SYCL must be slower in raw time (the
	// paper's consistent observation).
	run := func(cfg Config) sim.Time {
		return runBody(t, newSched(), mitigate.TP, cfg, func(m Model) {
			for k := 0; k < 5; k++ {
				m.ParallelFor(16, uniform(3e6))
			}
		})
	}
	if sycl, omp := run(SYCL()), run(OpenMP()); sycl <= omp {
		t.Fatalf("raw SYCL (%v) should be slower than raw OMP (%v)", sycl, omp)
	}
}

func TestSubmitOverheadCharged(t *testing.T) {
	run := func(overhead sim.Time, kernels int) sim.Time {
		s := newSched()
		cfg := SYCL()
		cfg.ForkOverhead = overhead
		cfg.CostFactor = 1.0
		return runBody(t, s, mitigate.TP, cfg, func(m Model) {
			for k := 0; k < kernels; k++ {
				m.ParallelFor(4, uniform(3e6))
			}
		})
	}
	free := run(0, 20)
	costly := run(50*sim.Microsecond, 20)
	delta := costly - free
	want := 20 * 50 * sim.Microsecond
	if delta < want*9/10 || delta > want*11/10 {
		t.Fatalf("submission overhead delta = %v, want ~%v", delta, want)
	}
}

func TestHostJoinsExecution(t *testing.T) {
	// With 4 threads and exactly 4 equal work-groups, all four (host
	// included) should run one group each: time ~ one group.
	s := newSched()
	got := runBody(t, s, mitigate.TP, bareSYCL(), func(m Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got > 12*sim.Millisecond {
		t.Fatalf("host does not seem to participate: %v", got)
	}
}

func TestGuidedClaimsFewerChunksThanDynamic(t *testing.T) {
	// With an exaggerated dispatch overhead, guided's shrinking chunks
	// (few claims) must beat dynamic chunk=1 (one claim per unit).
	run := func(schedKind Schedule) sim.Time {
		s := newSched()
		cfg := OpenMP()
		cfg.Schedule = schedKind
		cfg.Chunk = 1
		cfg.DispatchOverhead = 100 * sim.Microsecond
		return runBody(t, s, mitigate.TP, cfg, func(m Model) {
			m.ParallelFor(256, uniform(1e5))
		})
	}
	dynamic := run(Dynamic)
	guided := run(Guided)
	if guided >= dynamic {
		t.Fatalf("guided (%v) should dispatch fewer chunks than dynamic (%v)", guided, dynamic)
	}
}

func TestRoamingRegionRuns(t *testing.T) {
	s := newSched()
	got := runBody(t, s, mitigate.Rm, OpenMP(), func(m Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got < 10*sim.Millisecond || got > 12*sim.Millisecond {
		t.Fatalf("roaming region took %v", got)
	}
}
