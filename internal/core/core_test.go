package core

import (
	"bytes"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mkEvent(cpu int, class cpusched.NoiseClass, src string, start, dur sim.Time) trace.Event {
	return trace.Event{CPU: cpu, Class: class, Source: src, Start: start, Duration: dur}
}

// TestRefineSubtractsAverage reproduces the Figure-4 situation: the
// worst-case trace contains a recurring source whose average contribution
// must be subtracted once per expected occurrence.
func TestRefineSubtractsAverage(t *testing.T) {
	// Average runs: source "kw" occurs once per 100ms run with mean
	// duration 10us... build three normal traces and one worst case.
	mk := func(exec sim.Time, durs ...sim.Time) *trace.Trace {
		tr := &trace.Trace{ExecTime: exec}
		for i, d := range durs {
			tr.Events = append(tr.Events,
				mkEvent(0, cpusched.ClassThread, "kw", sim.Time(i)*sim.Millisecond, d))
		}
		return tr
	}
	normals := []*trace.Trace{
		mk(100*sim.Millisecond, 10*sim.Microsecond),
		mk(100*sim.Millisecond, 10*sim.Microsecond),
		mk(100*sim.Millisecond, 10*sim.Microsecond),
	}
	// Worst case: 200ms window, two occurrences: one huge (5ms) and one
	// average-sized.
	worst := mk(200*sim.Millisecond, 5*sim.Millisecond, 10*sim.Microsecond)
	all := append(append([]*trace.Trace{}, normals...), worst)
	profile := trace.BuildProfile(all)

	refined := Refine(worst, profile)
	// Average rate is ~1 event / ~120ms -> expected in 200ms window ~= 2.
	// The two subtractions (avg dur ~1.008ms because the worst trace's 5ms
	// outlier inflates the mean) must eat the small event entirely and
	// shave the big one, leaving a single reduced event.
	if len(refined.Events) != 1 {
		t.Fatalf("refined events = %d, want 1 (%+v)", len(refined.Events), refined.Events)
	}
	if got := refined.Events[0].Duration; got >= 5*sim.Millisecond || got <= 0 {
		t.Fatalf("residual duration %v not reduced from 5ms", got)
	}
}

func TestRefinePreservesUnknownSources(t *testing.T) {
	// A source that appears only in the worst case has average frequency
	// ~0 within the window, so it survives intact.
	normal := &trace.Trace{ExecTime: 100 * sim.Millisecond}
	worst := &trace.Trace{ExecTime: 100 * sim.Millisecond, Events: []trace.Event{
		mkEvent(1, cpusched.ClassThread, "gnome-shell", 10*sim.Millisecond, 30*sim.Millisecond),
	}}
	profile := trace.BuildProfile([]*trace.Trace{normal, normal, normal, worst})
	refined := Refine(worst, profile)
	if len(refined.Events) != 1 || refined.Events[0].Duration != 30*sim.Millisecond {
		t.Fatalf("rare outlier should survive refinement: %+v", refined.Events)
	}
}

func TestRefineDropsFullyAverageTrace(t *testing.T) {
	// A worst case identical to the average refines to (almost) nothing.
	mk := func() *trace.Trace {
		tr := &trace.Trace{ExecTime: 100 * sim.Millisecond}
		for i := 0; i < 10; i++ {
			tr.Events = append(tr.Events,
				mkEvent(0, cpusched.ClassIRQ, "local_timer:236",
					sim.Time(i)*10*sim.Millisecond, 5*sim.Microsecond))
		}
		return tr
	}
	traces := []*trace.Trace{mk(), mk(), mk(), mk()}
	profile := trace.BuildProfile(traces)
	refined := Refine(traces[3], profile)
	if len(refined.Events) != 0 {
		t.Fatalf("average-identical trace should refine to empty, got %d events", len(refined.Events))
	}
}

func TestExpectedOccurrencesScalesWithWindow(t *testing.T) {
	stats := trace.SourceStats{Count: 40, Traces: 4, TotalDur: 40 * sim.Microsecond}
	profile := &trace.Profile{MeanExec: 100 * sim.Millisecond, Traces: 4}
	// Rate = 10 events / 100ms. In a 200ms window: 20.
	if got := expectedOccurrences(stats, profile, 200*sim.Millisecond); got != 20 {
		t.Fatalf("expected occurrences = %d, want 20", got)
	}
	if got := expectedOccurrences(stats, &trace.Profile{}, 200*sim.Millisecond); got != 0 {
		t.Fatalf("zero profile should expect 0, got %d", got)
	}
}

func TestGeneratePolicyMapping(t *testing.T) {
	refined := &trace.Trace{ExecTime: 100 * sim.Millisecond, Events: []trace.Event{
		mkEvent(0, cpusched.ClassIRQ, "local_timer:236", 0, 10*sim.Microsecond),
		mkEvent(0, cpusched.ClassSoftIRQ, "RCU:9", 20*sim.Microsecond, 10*sim.Microsecond),
		mkEvent(1, cpusched.ClassThread, "kworker/1:1", 0, 10*sim.Microsecond),
	}}
	cfg := Generate(refined, false)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.CPUs) != 2 {
		t.Fatalf("cpus = %d", len(cfg.CPUs))
	}
	for _, e := range cfg.CPUs[0].Events {
		if e.Policy != "SCHED_FIFO" {
			t.Fatalf("interrupt noise must map to SCHED_FIFO: %+v", e)
		}
	}
	if cfg.CPUs[1].Events[0].Policy != "SCHED_OTHER" {
		t.Fatalf("thread noise must map to SCHED_OTHER: %+v", cfg.CPUs[1].Events[0])
	}
	if cfg.Window != 100*sim.Millisecond {
		t.Fatalf("window = %v", cfg.Window)
	}
}

func TestGenerateOriginalMergePessimistic(t *testing.T) {
	refined := &trace.Trace{ExecTime: sim.Second, Events: []trace.Event{
		mkEvent(0, cpusched.ClassThread, "kw", 0, 100*sim.Microsecond),
		mkEvent(0, cpusched.ClassIRQ, "timer", 50*sim.Microsecond, 100*sim.Microsecond),
	}}
	cfg := Generate(refined, false)
	evs := cfg.CPUs[0].Events
	if len(evs) != 1 {
		t.Fatalf("original merge should collapse overlap: %+v", evs)
	}
	if evs[0].Policy != "SCHED_FIFO" {
		t.Fatalf("pessimistic merge must escalate to FIFO: %+v", evs[0])
	}
	if evs[0].Duration != 150*sim.Microsecond {
		t.Fatalf("merged duration = %v, want 150us", evs[0].Duration)
	}
}

func TestGenerateImprovedMergeKeepsClassesApart(t *testing.T) {
	refined := &trace.Trace{ExecTime: sim.Second, Events: []trace.Event{
		mkEvent(0, cpusched.ClassThread, "kw", 0, 100*sim.Microsecond),
		mkEvent(0, cpusched.ClassIRQ, "timer", 50*sim.Microsecond, 100*sim.Microsecond),
	}}
	cfg := Generate(refined, true)
	evs := cfg.CPUs[0].Events
	if len(evs) != 2 {
		t.Fatalf("improved merge must not merge across classes: %+v", evs)
	}
	var sawBoosted bool
	for _, e := range evs {
		if e.Policy == "SCHED_OTHER" {
			if e.Nice >= 0 {
				t.Fatalf("improved thread noise should have boosted priority: %+v", e)
			}
			sawBoosted = true
		}
	}
	if !sawBoosted {
		t.Fatal("no thread-noise event in improved config")
	}
}

func TestGenerateMergesSameClassOverlaps(t *testing.T) {
	refined := &trace.Trace{ExecTime: sim.Second, Events: []trace.Event{
		mkEvent(0, cpusched.ClassIRQ, "a", 0, 100*sim.Microsecond),
		mkEvent(0, cpusched.ClassIRQ, "b", 50*sim.Microsecond, 100*sim.Microsecond),
		mkEvent(0, cpusched.ClassIRQ, "c", 500*sim.Microsecond, 10*sim.Microsecond),
	}}
	cfg := Generate(refined, true)
	evs := cfg.CPUs[0].Events
	if len(evs) != 2 {
		t.Fatalf("same-class overlap should merge: %+v", evs)
	}
	if evs[0].Duration != 150*sim.Microsecond {
		t.Fatalf("merged duration %v", evs[0].Duration)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	refined := &trace.Trace{
		Platform: "intel-9700kf", Workload: "nbody", Model: "omp",
		Strategy: "Rm", Seed: 9, ExecTime: sim.Second,
		Events: []trace.Event{
			mkEvent(2, cpusched.ClassIRQ, "local_timer:236", 100, 200),
			mkEvent(3, cpusched.ClassThread, "kworker/3:1", 500, 900),
		},
	}
	cfg := Generate(refined, true)
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != cfg.Platform || got.Seed != cfg.Seed || got.Window != cfg.Window ||
		got.Improved != cfg.Improved || got.NumEvents() != cfg.NumEvents() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cfg)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []*Config{
		{Window: 0},
		{Window: 1, CPUs: []CPUEvents{{CPU: -1}}},
		{Window: 1, CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{{Start: 0, Duration: 0, Policy: "SCHED_FIFO"}}}}},
		{Window: 1, CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{{Start: 0, Duration: 1, Policy: "SCHED_WEIRD"}}}}},
		{Window: 1, CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{
			{Start: 5, Duration: 1, Policy: "SCHED_FIFO"},
			{Start: 0, Duration: 1, Policy: "SCHED_FIFO"},
		}}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestReplayerInjectsAtConfiguredTimes(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.BalanceInterval = 0
	s := cpusched.New(eng, topo, opt)

	// Workload: a pinned 30ms spin on CPU 0.
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: machine.SetOf(0)},
		cpusched.ReqCompute(float64(30*sim.Millisecond)*s.Topology().CyclesPerNs()))

	cfg := &Config{
		Window: 100 * sim.Millisecond,
		CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{
			{Start: 5 * sim.Millisecond, Duration: 10 * sim.Millisecond,
				Policy: "SCHED_FIFO", RTPrio: 50, Class: cpusched.ClassIRQ, Source: "x"},
		}}},
	}
	r, err := NewReplayer(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunWhile(func() bool { return !w.Done() })
	got := eng.Now()
	s.Shutdown()
	// With 4 CPUs and an unpinned injector, the injector should land on an
	// idle CPU... but there are 3 idle CPUs, so the workload is NOT
	// delayed: wake placement avoids the busy CPU entirely.
	if got > 31*sim.Millisecond {
		t.Fatalf("injector on an idle machine should not delay workload: %v", got)
	}
}

func TestReplayerFIFODelaysSaturatedMachine(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.BalanceInterval = 0
	s := cpusched.New(eng, topo, opt)

	// Saturate all four CPUs with pinned 30ms spins.
	var tasks []*cpusched.Task
	for cpu := 0; cpu < 4; cpu++ {
		cpu := cpu
		tasks = append(tasks, s.SpawnSeq(cpusched.TaskSpec{
			Name: "w", Affinity: machine.SetOf(cpu),
		}, cpusched.ReqCompute(float64(30*sim.Millisecond)*s.Topology().CyclesPerNs())))
	}
	cfg := &Config{
		Window: 100 * sim.Millisecond,
		CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{
			{Start: 5 * sim.Millisecond, Duration: 10 * sim.Millisecond,
				Policy: "SCHED_FIFO", RTPrio: 50, Class: cpusched.ClassIRQ, Source: "x"},
		}}},
	}
	r, err := NewReplayer(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	eng.RunWhile(func() bool {
		for _, tk := range tasks {
			if !tk.Done() {
				return true
			}
		}
		return false
	})
	got := eng.Now()
	s.Shutdown()
	// The FIFO injection fully preempts one workload thread for 10ms.
	if got < 39*sim.Millisecond || got > 41*sim.Millisecond {
		t.Fatalf("saturated machine should finish at ~40ms, got %v", got)
	}
}

func TestReplayerEarlyTermination(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: machine.SetOf(0)},
		cpusched.ReqCompute(float64(5*sim.Millisecond)*s.Topology().CyclesPerNs()))
	cfg := &Config{
		Window: sim.Second,
		CPUs: []CPUEvents{{CPU: 0, Events: []NoiseEvent{
			{Start: 500 * sim.Millisecond, Duration: 10 * sim.Millisecond,
				Policy: "SCHED_OTHER", Class: cpusched.ClassThread, Source: "kw"},
		}}},
	}
	r, err := NewReplayer(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.OnDone(func() { r.StopAll() })
	eng.RunWhile(func() bool { return !w.Done() })
	if !r.Done() {
		t.Fatal("StopAll should have terminated pending injectors")
	}
	s.Shutdown()
}

func TestReplayerRejectsBadConfig(t *testing.T) {
	eng := sim.NewEngine()
	s := cpusched.New(eng, machine.MustPreset(machine.TinyTest), cpusched.Defaults())
	if _, err := NewReplayer(s, &Config{Window: 0}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	s.Shutdown()
}

func TestConfigTotals(t *testing.T) {
	cfg := &Config{Window: 1, CPUs: []CPUEvents{
		{CPU: 0, Events: []NoiseEvent{{Start: 0, Duration: 5, Policy: "SCHED_FIFO"}}},
		{CPU: 1, Events: []NoiseEvent{{Start: 0, Duration: 7, Policy: "SCHED_OTHER"}}},
	}}
	if cfg.TotalNoise() != 12 || cfg.NumEvents() != 2 {
		t.Fatalf("totals wrong: %v %v", cfg.TotalNoise(), cfg.NumEvents())
	}
}
