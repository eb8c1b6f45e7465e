package omprt

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

func newSched() *cpusched.Scheduler {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest) // 4 cpus, 3 GHz
	opt := cpusched.Defaults()
	opt.MigrationCost = 0
	return cpusched.New(eng, topo, opt)
}

func uniform(cycles float64) func(int) parmodel.Cost {
	return func(int) parmodel.Cost { return parmodel.Cost{Cycles: cycles} }
}

// runBody executes body under the given strategy/config and returns the
// wall time.
func runBody(t *testing.T, s *cpusched.Scheduler, strat mitigate.Strategy, cfg Config, body parmodel.Body) sim.Time {
	t.Helper()
	plan := mitigate.MustApply(strat, s.Topology())
	team := Start(s, plan, cfg, body)
	s.Engine().RunWhile(func() bool { return !team.Master().Done() })
	end := s.Engine().Now()
	s.Engine().RunUntil(end + sim.Millisecond) // let workers park/exit
	s.Shutdown()
	return end
}

func TestStaticSpeedup(t *testing.T) {
	s := newSched()
	// 120M cycles over 4 threads = 30M cycles each = 10ms at 3 GHz.
	got := runBody(t, s, mitigate.TP, DefaultConfig(), func(m parmodel.Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got < 10*sim.Millisecond || got > 11*sim.Millisecond {
		t.Fatalf("4-thread static region took %v, want ~10ms", got)
	}
}

func TestWorkConservation(t *testing.T) {
	for _, schedKind := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3} {
			s := newSched()
			const n = 97
			seen := make([]int, n)
			cfg := DefaultConfig()
			cfg.Schedule = schedKind
			cfg.Chunk = chunk
			runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
				m.ParallelFor(n, func(i int) parmodel.Cost {
					seen[i]++
					return parmodel.Cost{Cycles: 1e5}
				})
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%v chunk=%d: unit %d executed %d times", schedKind, chunk, i, c)
				}
			}
		}
	}
}

func TestMultipleRegions(t *testing.T) {
	s := newSched()
	regions := 0
	runBody(t, s, mitigate.TP, DefaultConfig(), func(m parmodel.Model) {
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
			s.Engine().At(2*sim.Millisecond, func() {
				s.SpawnSeq(cpusched.TaskSpec{
					Name: "noise", Kind: cpusched.KindNoiseThread,
					Policy: cpusched.PolicyFIFO, RTPrio: 50,
					Affinity: machine.SetOf(3),
				}, cpusched.ReqCompute(float64(50*sim.Millisecond)*s.Topology().CyclesPerNs()))
			})
		}
		return runBody(t, s, mitigate.TP, DefaultConfig(), func(m parmodel.Model) {
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
		s.Engine().At(2*sim.Millisecond, func() {
			s.SpawnSeq(cpusched.TaskSpec{
				Name: "noise", Kind: cpusched.KindNoiseThread,
				Policy: cpusched.PolicyFIFO, RTPrio: 50,
				Affinity: machine.SetOf(3),
			}, cpusched.ReqCompute(float64(50*sim.Millisecond)*s.Topology().CyclesPerNs()))
		})
		cfg := DefaultConfig()
		cfg.Schedule = schedKind
		cfg.Chunk = 1
		return runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
			m.ParallelFor(400, uniform(6e5)) // 80ms of work in 0.2ms units
		})
	}
	static := run(Static)
	dynamic := run(Dynamic)
	if dynamic >= static {
		t.Fatalf("dynamic (%v) should absorb noise better than static round-robin (%v)", dynamic, static)
	}
}

func TestSingleThreadPlan(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	plan := &mitigate.Plan{Strategy: mitigate.TP, Threads: 1,
		Allowed: machine.SetOf(0), PinCPUOf: []int{0}}
	team := Start(s, plan, DefaultConfig(), func(m parmodel.Model) {
		if m.Threads() != 1 {
			t.Error("Threads() != 1")
		}
		m.ParallelFor(10, uniform(3e6)) // 10ms serial
	})
	eng.RunWhile(func() bool { return !team.Master().Done() })
	if now := eng.Now(); now < 10*sim.Millisecond || now > 11*sim.Millisecond {
		t.Fatalf("single-thread region took %v", now)
	}
	s.Shutdown()
}

func TestWorkersExitAfterBody(t *testing.T) {
	s := newSched()
	plan := mitigate.MustApply(mitigate.TP, s.Topology())
	team := Start(s, plan, DefaultConfig(), func(m parmodel.Model) {
		m.ParallelFor(4, uniform(3e6))
	})
	s.Engine().Run()
	if !team.Master().Done() {
		t.Fatal("master not done")
	}
	for _, w := range team.workers {
		if !w.Done() {
			t.Fatal("worker did not exit after master finished")
		}
	}
	s.Shutdown()
}

func TestMemoryCostsFlowThrough(t *testing.T) {
	s := newSched() // 20 GB/s total, 10 GB/s per core
	got := runBody(t, s, mitigate.TP, DefaultConfig(), func(m parmodel.Model) {
		// 4 threads streaming 50 MB each: 200 MB at 20 GB/s = 10ms.
		m.ParallelFor(4, func(int) parmodel.Cost { return parmodel.Cost{Bytes: 50e6} })
	})
	if got < 10*sim.Millisecond || got > 12*sim.Millisecond {
		t.Fatalf("memory-bound region took %v, want ~10ms", got)
	}
}

func TestCostFactorScales(t *testing.T) {
	base := func(f float64) sim.Time {
		s := newSched()
		cfg := DefaultConfig()
		cfg.CostFactor = f
		return runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
			m.ParallelFor(4, uniform(30e6))
		})
	}
	t1, t2 := base(1.0), base(1.5)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.4 || ratio > 1.6 {
		t.Fatalf("cost factor 1.5 produced ratio %.3f", ratio)
	}
}

func TestGuidedClaimsFewerChunksThanDynamic(t *testing.T) {
	// With an exaggerated dispatch overhead, guided's shrinking chunks
	// (few claims) must beat dynamic chunk=1 (one claim per unit).
	run := func(schedKind Schedule) sim.Time {
		s := newSched()
		cfg := DefaultConfig()
		cfg.Schedule = schedKind
		cfg.Chunk = 1
		cfg.DispatchOverhead = 100 * sim.Microsecond
		return runBody(t, s, mitigate.TP, cfg, func(m parmodel.Model) {
			m.ParallelFor(256, uniform(1e5))
		})
	}
	dynamic := run(Dynamic)
	guided := run(Guided)
	if guided >= dynamic {
		t.Fatalf("guided (%v) should dispatch fewer chunks than dynamic (%v)", guided, dynamic)
	}
}

func TestParseSchedule(t *testing.T) {
	for in, want := range map[string]Schedule{
		"st": Static, "static": Static,
		"dy": Dynamic, "dynamic": Dynamic,
		"gd": Guided, "guided": Guided,
	} {
		got, err := ParseSchedule(in)
		if err != nil || got != want {
			t.Fatalf("ParseSchedule(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSchedule("auto"); err == nil {
		t.Fatal("unknown schedule should error")
	}
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule String() labels wrong")
	}
}

func TestRoamingRegionRuns(t *testing.T) {
	s := newSched()
	got := runBody(t, s, mitigate.Rm, DefaultConfig(), func(m parmodel.Model) {
		m.ParallelFor(4, uniform(30e6))
	})
	if got < 10*sim.Millisecond || got > 12*sim.Millisecond {
		t.Fatalf("roaming region took %v", got)
	}
}
