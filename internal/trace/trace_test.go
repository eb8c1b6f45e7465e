package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{
		Platform: "intel-9700kf",
		Workload: "nbody",
		Model:    "omp",
		Strategy: "Rm",
		Seed:     42,
		ExecTime: 450971154,
		Events: []Event{
			{CPU: 5, Class: cpusched.ClassIRQ, Source: "local_timer:236", Start: 45740274, Duration: 310},
			{CPU: 10, Class: cpusched.ClassSoftIRQ, Source: "RCU:9", Start: 45742404, Duration: 140},
			{CPU: 25, Class: cpusched.ClassSoftIRQ, Source: "SCHED:7", Start: 45742554, Duration: 690},
			{CPU: 13, Class: cpusched.ClassThread, Source: "kworker/13:1", Start: 188747948, Duration: 3760},
		},
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	text := Text(tr)
	got, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if got.Platform != tr.Platform || got.Workload != tr.Workload ||
		got.Model != tr.Model || got.Strategy != tr.Strategy || got.Seed != tr.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.ExecTime != tr.ExecTime {
		t.Fatalf("exec time %v != %v", got.ExecTime, tr.ExecTime)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestTextFormatLooksLikeFigure3(t *testing.T) {
	text := Text(sampleTrace())
	for _, want := range []string{"irq_noise", "softirq_noise", "thread_noise",
		"local_timer:236", "kworker/13:1", "ns"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text format missing %q:\n%s", want, text)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.ExecTime != tr.ExecTime || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	bad := []string{
		"005 irq_noise local_timer 1.0",          // too few fields
		"abc irq_noise local_timer 1.0 310 ns",   // bad cpu
		"005 weird_noise local_timer 1.0 310 ns", // bad class
		"005 irq_noise local_timer x 310 ns",     // bad start
		"005 irq_noise local_timer 1.0 x ns",     // bad duration
		"005 irq_noise local_timer 1.0 310 us",   // wrong unit
		"# seed=abc",                             // bad seed
		"# exec=xyz",                             // bad exec
		"# unknown=1",                            // unknown field
		"# noequals",                             // malformed header
	}
	for _, line := range bad {
		if _, err := ReadText(strings.NewReader(line)); err == nil {
			t.Errorf("ReadText(%q) should fail", line)
		}
	}
}

func TestReadTextSkipsBlankLines(t *testing.T) {
	text := "\n\n005  irq_noise  x  0.000000001  10 ns\n\n"
	tr, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("got %d events", len(tr.Events))
	}
}

func TestTotalNoise(t *testing.T) {
	tr := sampleTrace()
	if got := tr.TotalNoise(); got != 310+140+690+3760 {
		t.Fatalf("TotalNoise = %v", got)
	}
}

func TestSortEvents(t *testing.T) {
	tr := &Trace{Events: []Event{
		{CPU: 1, Start: 30},
		{CPU: 2, Start: 10},
		{CPU: 0, Start: 10},
		{CPU: 3, Start: 20},
	}}
	tr.SortEvents()
	wantOrder := []int{0, 2, 3, 1}
	for i, cpu := range wantOrder {
		if tr.Events[i].CPU != cpu {
			t.Fatalf("sorted order wrong at %d: %+v", i, tr.Events)
		}
	}
}

func TestBuildProfile(t *testing.T) {
	t1 := &Trace{ExecTime: 100, Events: []Event{
		{Class: cpusched.ClassIRQ, Source: "timer", Duration: 100},
		{Class: cpusched.ClassIRQ, Source: "timer", Duration: 300},
		{Class: cpusched.ClassThread, Source: "kw", Duration: 1000},
	}}
	t2 := &Trace{ExecTime: 200, Events: []Event{
		{Class: cpusched.ClassIRQ, Source: "timer", Duration: 200},
	}}
	p := BuildProfile([]*Trace{t1, t2})
	if p.Traces != 2 {
		t.Fatalf("Traces = %d", p.Traces)
	}
	if p.MeanExec != 150 {
		t.Fatalf("MeanExec = %v", p.MeanExec)
	}
	timer := p.Sources[SourceKey{Class: cpusched.ClassIRQ, Source: "timer"}]
	if timer.Count != 3 || timer.MeanDur() != 200 {
		t.Fatalf("timer stats: %+v", timer)
	}
	if got := timer.MeanCountPerTrace(); got != 1.5 {
		t.Fatalf("timer freq = %v", got)
	}
	kw := p.Sources[SourceKey{Class: cpusched.ClassThread, Source: "kw"}]
	if kw.Count != 1 || kw.MeanDur() != 1000 {
		t.Fatalf("kworker stats: %+v", kw)
	}
}

func TestBuildProfileEmpty(t *testing.T) {
	p := BuildProfile(nil)
	if p.Traces != 0 || p.MeanExec != 0 || len(p.Sources) != 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	var z SourceStats
	if z.MeanDur() != 0 || z.MeanCountPerTrace() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestSortedSourcesDeterministic(t *testing.T) {
	p := BuildProfile([]*Trace{{Events: []Event{
		{Class: cpusched.ClassThread, Source: "b"},
		{Class: cpusched.ClassIRQ, Source: "z"},
		{Class: cpusched.ClassIRQ, Source: "a"},
		{Class: cpusched.ClassSoftIRQ, Source: "m"},
	}}})
	got := p.SortedSources()
	want := []SourceKey{
		{cpusched.ClassIRQ, "a"},
		{cpusched.ClassIRQ, "z"},
		{cpusched.ClassSoftIRQ, "m"},
		{cpusched.ClassThread, "b"},
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, got[i].Key, want[i])
		}
	}
}

func TestWorstBestCase(t *testing.T) {
	traces := []*Trace{{ExecTime: 100}, {ExecTime: 300}, {ExecTime: 200}, {ExecTime: 300}}
	w, wi, err := WorstCase(traces)
	if err != nil || wi != 1 || w.ExecTime != 300 {
		t.Fatalf("WorstCase = %v %d %v (tie must break to earliest)", w, wi, err)
	}
	b, bi, err := BestCase(traces)
	if err != nil || bi != 0 || b.ExecTime != 100 {
		t.Fatalf("BestCase = %v %d %v", b, bi, err)
	}
	if _, _, err := WorstCase(nil); err == nil {
		t.Fatal("WorstCase(nil) should error")
	}
	if _, _, err := BestCase(nil); err == nil {
		t.Fatal("BestCase(nil) should error")
	}
}

func TestExecTimes(t *testing.T) {
	traces := []*Trace{{ExecTime: 1}, {ExecTime: 2}}
	got := ExecTimes(traces)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ExecTimes = %v", got)
	}
}

// TestTracerRecordsSchedulerNoise wires a Tracer into a live scheduler and
// checks the recorded events match what happened.
func TestTracerRecordsSchedulerNoise(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.BalanceInterval = 0
	opt.TraceOverhead = 0
	s := cpusched.New(eng, topo, opt)
	tracer := NewTracer(0)
	s.SetTracer(tracer)

	aff := machine.SetOf(0)
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: aff},
		cpusched.ReqCompute(30e6)) // 10ms at 3GHz
	eng.At(sim.Millisecond, func() {
		s.SpawnSeq(cpusched.TaskSpec{
			Name: "kw", Source: "kworker/0:1", Kind: cpusched.KindNoiseThread,
			Policy: cpusched.PolicyFIFO, RTPrio: 1, Affinity: aff,
		}, cpusched.ReqCompute(3e6)) // 1ms
	})
	eng.At(5*sim.Millisecond, func() {
		s.InjectIRQ(0, cpusched.ClassIRQ, "local_timer:236", 200*sim.Microsecond)
	})
	eng.RunWhile(func() bool { return !w.Done() })
	tr := tracer.Finish(eng.Now(), "tiny", "test", "omp", "Rm", 1)
	s.Shutdown()

	if len(tr.Events) != 2 {
		t.Fatalf("recorded %d events, want 2: %+v", len(tr.Events), tr.Events)
	}
	kw, irq := tr.Events[0], tr.Events[1]
	if kw.Class != cpusched.ClassThread || kw.Source != "kworker/0:1" {
		t.Fatalf("first event: %+v", kw)
	}
	if kw.Start != sim.Millisecond || kw.Duration != sim.Millisecond {
		t.Fatalf("kworker interval: %+v", kw)
	}
	if irq.Class != cpusched.ClassIRQ || irq.Duration != 200*sim.Microsecond {
		t.Fatalf("irq event: %+v", irq)
	}
	if tr.ExecTime != eng.Now() {
		t.Fatal("exec time not stamped")
	}
}

func TestTracerInjectorFiltering(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.BalanceInterval = 0
	s := cpusched.New(eng, topo, opt)
	tracer := NewTracer(0)
	s.SetTracer(tracer)
	inj := s.SpawnSeq(cpusched.TaskSpec{
		Name: "inj", Kind: cpusched.KindInjector, Affinity: machine.SetOf(0),
	}, cpusched.ReqCompute(3e6))
	eng.RunWhile(func() bool { return !inj.Done() })
	s.Shutdown()
	if len(tracer.Trace().Events) != 0 {
		t.Fatal("injector noise should not be recorded by default")
	}
}

// Property: text round trip preserves arbitrary well-formed events.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(cpus []uint8, durs []uint32) bool {
		n := len(cpus)
		if len(durs) < n {
			n = len(durs)
		}
		tr := &Trace{Platform: "p", Workload: "w", Model: "m", Strategy: "s"}
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, Event{
				CPU:      int(cpus[i]),
				Class:    cpusched.NoiseClass(i % 3),
				Source:   "src:1",
				Start:    sim.Time(i) * 1000,
				Duration: sim.Time(durs[i]%1e6) + 1,
			})
		}
		got, err := ReadText(strings.NewReader(Text(tr)))
		if err != nil || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
