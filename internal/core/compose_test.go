package core

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/sim"
)

func mkCfg(window sim.Time, cpu int, starts ...sim.Time) *Config {
	ce := CPUEvents{CPU: cpu}
	for _, st := range starts {
		ce.Events = append(ce.Events, NoiseEvent{
			Start: st, Duration: 100 * sim.Microsecond,
			Policy: "SCHED_FIFO", RTPrio: 50,
			Class: cpusched.ClassIRQ, Source: "x",
		})
	}
	return &Config{Window: window, Improved: true, CPUs: []CPUEvents{ce}}
}

func TestMergeConfigs(t *testing.T) {
	a := mkCfg(sim.Second, 0, 0, 10*sim.Millisecond)
	b := mkCfg(2*sim.Second, 1, 5*sim.Millisecond)
	b.CPUs = append(b.CPUs, CPUEvents{CPU: 0, Events: []NoiseEvent{{
		Start: 5 * sim.Millisecond, Duration: sim.Microsecond,
		Policy: "SCHED_OTHER", Class: cpusched.ClassThread, Source: "y",
	}}})
	m, err := MergeConfigs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Window != 2*sim.Second {
		t.Fatalf("window = %v", m.Window)
	}
	if len(m.CPUs) != 2 || m.CPUs[0].CPU != 0 || m.CPUs[1].CPU != 1 {
		t.Fatalf("cpus: %+v", m.CPUs)
	}
	if len(m.CPUs[0].Events) != 3 {
		t.Fatalf("cpu0 events = %d", len(m.CPUs[0].Events))
	}
	// Sorted by start after merge.
	if m.CPUs[0].Events[1].Source != "y" {
		t.Fatalf("merge order wrong: %+v", m.CPUs[0].Events)
	}
	// Inputs untouched.
	if len(a.CPUs[0].Events) != 2 {
		t.Fatal("MergeConfigs mutated input")
	}
	if _, err := MergeConfigs(nil, a); err == nil {
		t.Fatal("nil input should error")
	}
}

func TestAmplifyConfig(t *testing.T) {
	a := mkCfg(sim.Second, 0, 0)
	a.CPUs[0].Events[0].MemBytes = 1000
	out, err := AmplifyConfig(a, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.CPUs[0].Events[0].Duration != 250*sim.Microsecond {
		t.Fatalf("duration = %v", out.CPUs[0].Events[0].Duration)
	}
	if out.CPUs[0].Events[0].MemBytes != 2500 {
		t.Fatalf("mem = %v", out.CPUs[0].Events[0].MemBytes)
	}
	if a.CPUs[0].Events[0].Duration != 100*sim.Microsecond {
		t.Fatal("input mutated")
	}
	if _, err := AmplifyConfig(a, 0); err == nil {
		t.Fatal("zero factor should error")
	}
	if _, err := AmplifyConfig(nil, 1); err == nil {
		t.Fatal("nil config should error")
	}
}

// TestAmplifiedConfigInjects verifies an amplified config actually changes
// run behaviour proportionally (mini end-to-end of the composition path).
func TestAmplifiedConfigInjects(t *testing.T) {
	run := func(cfg *Config) sim.Time {
		s, end := replayOnSpin(t, cfg)
		s.Shutdown()
		return end
	}
	base := mkCfg(sim.Second, 0, 5*sim.Millisecond)
	base.CPUs[0].Events[0].Duration = 5 * sim.Millisecond
	amp, err := AmplifyConfig(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	d1 := run(base)
	d2 := run(amp)
	// 5ms noise vs 15ms noise on a saturated machine: ~10ms difference.
	diff := d2 - d1
	if diff < 9*sim.Millisecond || diff > 11*sim.Millisecond {
		t.Fatalf("amplified injection delta = %v, want ~10ms", diff)
	}
}
