package syclrt

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/omprt"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

func newSched() *cpusched.Scheduler {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.MigrationCost = 0
	return cpusched.New(eng, topo, opt)
}

func uniform(cycles float64) func(int) parmodel.Cost {
	return func(int) parmodel.Cost { return parmodel.Cost{Cycles: cycles} }
}

func runBody(t *testing.T, s *cpusched.Scheduler, strat mitigate.Strategy, cfg Config, body parmodel.Body) sim.Time {
	t.Helper()
	plan := mitigate.MustApply(strat, s.Topology())
	q := Start(s, plan, cfg, body)
	s.Engine().RunWhile(func() bool { return !q.Host().Done() })
	end := s.Engine().Now()
	s.Shutdown()
	return end
}

func TestKernelSpeedup(t *testing.T) {
	s := newSched()
	cfg := DefaultConfig()
	cfg.CostFactor = 1.0
	cfg.SubmitOverhead = 0
	cfg.WGDispatch = 0
	got := runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
		m.ParallelFor(4, uniform(30e6)) // 10ms per thread
	})
	if got < 10*sim.Millisecond || got > 11*sim.Millisecond {
		t.Fatalf("kernel took %v, want ~10ms", got)
	}
}

func TestWorkConservation(t *testing.T) {
	for _, wg := range []int{1, 3, 7} {
		s := newSched()
		const n = 101
		seen := make([]int, n)
		cfg := DefaultConfig()
		cfg.WGUnits = wg
		runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
			m.ParallelFor(n, func(i int) parmodel.Cost {
				seen[i]++
				return parmodel.Cost{Cycles: 1e5}
			})
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("wg=%d: unit %d executed %d times", wg, i, c)
			}
		}
	}
}

func TestSubmitOverheadCharged(t *testing.T) {
	run := func(overhead sim.Time, kernels int) sim.Time {
		s := newSched()
		cfg := DefaultConfig()
		cfg.SubmitOverhead = overhead
		cfg.CostFactor = 1.0
		return runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
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

func TestNoiseResilienceVsOMPStatic(t *testing.T) {
	// Identical work and identical 40ms FIFO noise on CPU 3: the SYCL
	// queue (dynamic work-groups) must degrade less than OpenMP static.
	noiseAt := func(s *cpusched.Scheduler) {
		s.Engine().At(2*sim.Millisecond, func() {
			s.SpawnSeq(cpusched.TaskSpec{
				Name: "noise", Kind: cpusched.KindNoiseThread,
				Policy: cpusched.PolicyFIFO, RTPrio: 50,
				Affinity: machine.SetOf(3),
			}, cpusched.ReqCompute(float64(40*sim.Millisecond)*s.Topology().CyclesPerNs()))
		})
	}
	// SYCL with noise.
	s1 := newSched()
	noiseAt(s1)
	cfg := DefaultConfig()
	cfg.CostFactor = 1.0
	cfg.SubmitOverhead = 0
	syclNoisy := runBody(t, s1, mitigate.TP, cfg, func(m parmodel.Model) {
		m.ParallelFor(400, uniform(6e5)) // 80ms total in 0.2ms units
	})
	// OMP static with the same noise.
	s2 := newSched()
	noiseAt(s2)
	plan := mitigate.MustApply(mitigate.TP, s2.Topology())
	ompCfg := omprt.DefaultConfig()
	team := omprt.Start(s2, plan, ompCfg, func(m parmodel.Model) {
		m.ParallelFor(400, uniform(6e5))
	})
	s2.Engine().RunWhile(func() bool { return !team.Master().Done() })
	ompNoisy := s2.Engine().Now()
	s2.Shutdown()

	if syclNoisy >= ompNoisy {
		t.Fatalf("SYCL under noise (%v) should beat OMP-static under noise (%v)", syclNoisy, ompNoisy)
	}
}

func TestHostJoinsExecution(t *testing.T) {
	// With 4 threads and exactly 4 equal work-groups, all four (host
	// included) should run one group each: time ~ one group.
	s := newSched()
	cfg := DefaultConfig()
	cfg.CostFactor = 1.0
	cfg.SubmitOverhead = 0
	cfg.WGDispatch = 0
	got := runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got > 12*sim.Millisecond {
		t.Fatalf("host does not seem to participate: %v", got)
	}
}

func TestWorkersExitAfterBody(t *testing.T) {
	s := newSched()
	plan := mitigate.MustApply(mitigate.TP, s.Topology())
	q := Start(s, plan, DefaultConfig(), func(m parmodel.Model) {
		m.ParallelFor(8, uniform(1e6))
	})
	s.Engine().Run()
	if !q.Host().Done() {
		t.Fatal("host not done")
	}
	for _, w := range q.workers {
		if !w.Done() {
			t.Fatal("worker did not exit")
		}
	}
	s.Shutdown()
}

func TestSingleThread(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	plan := &mitigate.Plan{Strategy: mitigate.TP, Threads: 1,
		Allowed: machine.SetOf(0), PinCPUOf: []int{0}}
	cfg := DefaultConfig()
	cfg.CostFactor = 1.0
	cfg.SubmitOverhead = 0
	cfg.WGDispatch = 0
	q := Start(s, plan, cfg, func(m parmodel.Model) {
		m.ParallelFor(3, uniform(3e6)) // 3ms serial
	})
	eng.RunWhile(func() bool { return !q.Host().Done() })
	if now := eng.Now(); now < 3*sim.Millisecond || now > 4*sim.Millisecond {
		t.Fatalf("single-thread kernel took %v", now)
	}
	s.Shutdown()
}

func TestCostFactorMakesSYCLSlowerThanOMP(t *testing.T) {
	// Same work, default configs: SYCL must be slower in raw time (the
	// paper's consistent observation).
	s1 := newSched()
	sycl := runBody(t, s1, mitigate.TP, DefaultConfig(), func(m parmodel.Model) {
		for k := 0; k < 5; k++ {
			m.ParallelFor(16, uniform(3e6))
		}
	})
	s2 := newSched()
	plan := mitigate.MustApply(mitigate.TP, s2.Topology())
	team := omprt.Start(s2, plan, omprt.DefaultConfig(), func(m parmodel.Model) {
		for k := 0; k < 5; k++ {
			m.ParallelFor(16, uniform(3e6))
		}
	})
	s2.Engine().RunWhile(func() bool { return !team.Master().Done() })
	omp := s2.Engine().Now()
	s2.Shutdown()
	if sycl <= omp {
		t.Fatalf("raw SYCL (%v) should be slower than raw OMP (%v)", sycl, omp)
	}
}

func TestMasterComputeAndMemory(t *testing.T) {
	s := newSched()
	cfg := DefaultConfig()
	cfg.CostFactor = 1.0
	got := runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
		m.MasterCompute(3e6) // 1ms
		m.MasterMemory(10e6) // 1ms at 10 GB/s core cap
	})
	if got < 2*sim.Millisecond || got > 3*sim.Millisecond {
		t.Fatalf("host serial work took %v, want ~2ms", got)
	}
}
