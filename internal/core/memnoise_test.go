package core

import (
	"bytes"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestMemoryNoiseSpecValidate(t *testing.T) {
	good := MemoryNoiseSpec{Window: sim.Second, Workers: 2, Period: 100 * sim.Millisecond, BurstBytes: 1e6}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MemoryNoiseSpec{
		{Workers: 1, Period: 1, BurstBytes: 1},
		{Window: 1, Period: 1, BurstBytes: 1},
		{Window: 1, Workers: 1, BurstBytes: 1},
		{Window: 1, Workers: 1, Period: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestMemoryNoiseBuild(t *testing.T) {
	spec := MemoryNoiseSpec{
		Window: 100 * sim.Millisecond, Workers: 3,
		Period: 25 * sim.Millisecond, BurstBytes: 2e6,
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.CPUs) != 3 {
		t.Fatalf("worker lists = %d", len(cfg.CPUs))
	}
	// 100ms window / 25ms period = 4 bursts per worker.
	for _, ce := range cfg.CPUs {
		if len(ce.Events) != 4 {
			t.Fatalf("worker %d bursts = %d, want 4", ce.CPU, len(ce.Events))
		}
		for _, e := range ce.Events {
			if e.MemBytes != 2e6 || e.Policy != "SCHED_OTHER" {
				t.Fatalf("bad event: %+v", e)
			}
		}
	}
	// Workers are phase-staggered.
	if cfg.CPUs[0].Events[0].Start == cfg.CPUs[1].Events[0].Start {
		t.Fatal("workers should be staggered")
	}
}

// TestMemoryNoiseContendsForBandwidth verifies the mechanism that makes
// this extension matter: memory noise slows a bandwidth-bound workload even
// when spare (housekeeping) cores are available to absorb CPU noise,
// because machine bandwidth is a global resource.
func TestMemoryNoiseContendsForBandwidth(t *testing.T) {
	run := func(inject *Config) sim.Time {
		eng := sim.NewEngine()
		topo := machine.MustPreset(machine.TinyTest) // 20 GB/s total
		opt := cpusched.Defaults()
		s := cpusched.New(eng, topo, opt)
		// Memory-bound workload on CPUs 0-2, CPU 3 left free (like HK).
		var tasks []*cpusched.Task
		for cpu := 0; cpu < 3; cpu++ {
			cpu := cpu
			tasks = append(tasks, s.SpawnSeq(cpusched.TaskSpec{
				Name: "w", Affinity: machine.SetOf(cpu),
			}, cpusched.ReqMemory(200e6)))
		}
		if inject != nil {
			r, err := NewReplayer(s, inject)
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

	base := run(nil)

	memCfg, err := (MemoryNoiseSpec{
		Window: 10 * sim.Second, Workers: 1,
		Period: 5 * sim.Millisecond, BurstBytes: 40e6,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	memNoisy := run(memCfg)

	// Equivalent CPU-occupation noise on the free core: absorbed.
	cpuCfg := &Config{Window: 10 * sim.Second, CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{
		{Start: sim.Millisecond, Duration: 20 * sim.Millisecond, Policy: "SCHED_OTHER",
			Class: cpusched.ClassThread, Source: "hog"},
	}}}}
	cpuNoisy := run(cpuCfg)

	if memNoisy <= base*102/100 {
		t.Fatalf("memory noise should slow a bandwidth-bound workload: base=%v noisy=%v", base, memNoisy)
	}
	if cpuNoisy > base*102/100 {
		t.Fatalf("CPU noise should be absorbed by the free core: base=%v noisy=%v", base, cpuNoisy)
	}
}

// TestMemoryNoiseReplayerRoundTrip ensures MemBytes events survive JSON.
func TestMemoryNoiseConfigJSON(t *testing.T) {
	cfg, err := (MemoryNoiseSpec{
		Window: sim.Second, Workers: 2, Period: 100 * sim.Millisecond, BurstBytes: 1e7,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPUs[0].Events[0].MemBytes != 1e7 {
		t.Fatal("MemBytes lost in JSON round trip")
	}
}
