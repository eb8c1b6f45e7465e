package core

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestIONoiseValidate(t *testing.T) {
	good := DefaultIONoise(sim.Second, []int{0})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []IONoiseSpec{
		{},
		{Window: 1, StormPeriod: 1, IRQsPerStorm: 1, IRQDur: 1},      // no cpus
		{Window: 1, CPUs: []int{0}, IRQsPerStorm: 1, IRQDur: 1},      // no period
		{Window: 1, CPUs: []int{0}, StormPeriod: 1, IRQDur: 1},       // no irqs
		{Window: 1, CPUs: []int{0}, StormPeriod: 1, IRQsPerStorm: 1}, // no dur
		{Window: 1, CPUs: []int{-1}, StormPeriod: 1, IRQsPerStorm: 1, IRQDur: 1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestIONoiseNotAbsorbedByHousekeeping is the extension's point: device
// interrupts are steered to fixed CPUs, so unlike thread noise they hit the
// workload even when spare cores exist.
func TestIONoiseNotAbsorbedByHousekeeping(t *testing.T) {
	run := func(withIO bool) sim.Time {
		eng := sim.NewEngine()
		topo := machine.MustPreset(machine.TinyTest)
		s := cpusched.New(eng, topo, cpusched.Defaults())
		// Compute-bound workload on CPUs 0-2; CPU 3 free (housekeeping).
		var tasks []*cpusched.Task
		for cpu := 0; cpu < 3; cpu++ {
			cpu := cpu
			tasks = append(tasks, s.SpawnSeq(cpusched.TaskSpec{
				Name: "w", Affinity: machine.SetOf(cpu),
			}, cpusched.ReqCompute(float64(100*sim.Millisecond)*s.Topology().CyclesPerNs())))
		}
		if withIO {
			spec := IONoiseSpec{
				Window:       sim.Second,
				CPUs:         []int{0}, // device irqs steered to CPU 0
				StormPeriod:  10 * sim.Millisecond,
				IRQsPerStorm: 100,
				IRQDur:       20 * sim.Microsecond,
				IRQGap:       10 * sim.Microsecond,
				FlushDur:     100 * sim.Microsecond,
			}
			r, err := NewIORunner(s, spec)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
		}
		eng.RunWhile(func() bool {
			for _, tk := range tasks {
				if !tk.Done() {
					return true
				}
			}
			return false
		})
		end := eng.Now()
		s.Shutdown()
		return end
	}
	base := run(false)
	noisy := run(true)
	// Each 10ms period steals 2ms of CPU 0 via irqs: ~20% on the straggler.
	if noisy < base*110/100 {
		t.Fatalf("irq storms must delay the workload despite the free core: base=%v noisy=%v", base, noisy)
	}
}

func TestIONoiseStopCancelsFutureStorms(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	r, err := NewIORunner(s, DefaultIONoise(sim.Second, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(60 * sim.Millisecond)
	stormsAtStop := r.Storms
	r.Stop()
	eng.RunUntil(500 * sim.Millisecond)
	if r.Storms != stormsAtStop {
		t.Fatalf("storms continued after Stop: %d -> %d", stormsAtStop, r.Storms)
	}
	if stormsAtStop == 0 {
		t.Fatal("no storms before stop")
	}
	s.Shutdown()
}

func TestIONoiseStaggersCPUs(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	spec := DefaultIONoise(200*sim.Millisecond, []int{0, 1})
	r, err := NewIORunner(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunUntil(210 * sim.Millisecond)
	// 200ms window / 50ms period = 4 storms per cpu.
	if r.Storms != 8 {
		t.Fatalf("storms = %d, want 8", r.Storms)
	}
	s.Shutdown()
}
