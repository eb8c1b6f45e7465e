package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func tinyPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	return platform.MustNew(machine.TinyTest)
}

func tinyWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name, "small")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunOnceBasics(t *testing.T) {
	p := tinyPlatform(t)
	res, err := RunOnce(Spec{
		Platform: p,
		Workload: tinyWorkload(t, "nbody"),
		Model:    "omp",
		Strategy: mitigate.Rm,
		Seed:     1,
		Tracing:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("zero exec time")
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("tracing produced no events")
	}
	if res.Trace.Workload != "nbody" || res.Trace.Model != "omp" || res.Trace.Strategy != "Rm" {
		t.Fatalf("trace labels: %+v", res.Trace)
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "minife"),
		Model: "sycl", Strategy: mitigate.RmHK, Seed: 42,
	}
	a, err := RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime {
		t.Fatalf("same seed, different exec: %v vs %v", a.ExecTime, b.ExecTime)
	}
	spec.Seed = 43
	c, err := RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExecTime == a.ExecTime {
		t.Fatal("different seed should perturb exec time")
	}
}

func TestRunOnceErrors(t *testing.T) {
	p := tinyPlatform(t)
	if _, err := RunOnce(Spec{}); err == nil {
		t.Fatal("empty spec should error")
	}
	if _, err := RunOnce(Spec{Platform: p, Workload: tinyWorkload(t, "nbody"), Model: "tbb"}); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := RunOnce(Spec{Platform: p, Workload: tinyWorkload(t, "nbody"), Model: "omp",
		Strategy: mitigate.Rm.WithSMT()}); err == nil {
		t.Fatal("SMT on non-SMT platform should error")
	}
}

func TestRunSeriesVaries(t *testing.T) {
	p := tinyPlatform(t)
	times, traces, err := Executor{}.Series(context.Background(), Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 5, Tracing: true,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 || len(traces) != 5 {
		t.Fatalf("series lengths: %d %d", len(times), len(traces))
	}
	allSame := true
	for _, tt := range times[1:] {
		if tt != times[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("noise should make reps differ")
	}
}

func TestPipelineProducesConfig(t *testing.T) {
	p := tinyPlatform(t)
	pl := Pipeline{
		Spec: Spec{
			Platform: p, Workload: tinyWorkload(t, "nbody"),
			Model: "omp", Strategy: mitigate.Rm, Seed: 7,
		},
		CollectRuns: 12,
		Improved:    true,
	}
	pr, err := pl.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Traces) != 12 {
		t.Fatalf("collected %d traces", len(pr.Traces))
	}
	if pr.Worst.ExecTime < pr.Traces[0].ExecTime && pr.WorstIndex == 0 {
		t.Fatal("worst-case selection broken")
	}
	for _, tr := range pr.Traces {
		if tr.ExecTime > pr.Worst.ExecTime {
			t.Fatal("worst is not the maximum")
		}
	}
	// Refinement never adds noise.
	if pr.Refined.TotalNoise() > pr.Worst.TotalNoise() {
		t.Fatal("refined trace has more noise than worst case")
	}
	if err := pr.Config.Validate(); err != nil {
		t.Fatal(err)
	}
	if pr.Config.Window != pr.Worst.ExecTime {
		t.Fatal("config window should be the worst-case exec time")
	}
	if pr.BaselineMean <= 0 {
		t.Fatal("baseline mean missing")
	}
}

func TestPipelineRejectsTooFewRuns(t *testing.T) {
	if _, err := (Pipeline{CollectRuns: 1}).RunContext(context.Background()); err == nil {
		t.Fatal("pipeline must require >= 2 runs")
	}
}

func TestInjectionReducesToBaselineWithEmptyConfig(t *testing.T) {
	// Injecting an (almost) empty config should change nothing much.
	p := tinyPlatform(t)
	w := tinyWorkload(t, "nbody")
	base, err := RunOnce(Spec{Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tiny := &core.Config{
		Window: sim.Second,
		CPUs: []core.CPUEvents{{CPU: 0, Events: []core.NoiseEvent{{
			Start: sim.Millisecond, Duration: sim.Microsecond,
			Policy: "SCHED_FIFO", RTPrio: 50,
			Class: cpusched.ClassIRQ, Source: "x",
		}}}},
	}
	inj, err := RunOnce(Spec{Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm, Seed: 3,
		Inject: tiny})
	if err != nil {
		t.Fatal(err)
	}
	diff := inj.ExecTime - base.ExecTime
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.02*float64(base.ExecTime) {
		t.Fatalf("1us injection changed exec by %v (base %v)", diff, base.ExecTime)
	}
}

func TestBaselineStudyShape(t *testing.T) {
	p := tinyPlatform(t)
	res, err := BaselineStudy{Platform: p, Workload: "nbody", Reps: 3, Seed: 1}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 { // 2 models x 6 strategies
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	for k, c := range res.Cells {
		if c.Summary.N != 3 || c.Summary.Mean <= 0 {
			t.Fatalf("cell %s: %+v", k, c.Summary)
		}
	}
	if _, ok := res.Cells[Key("omp", mitigate.TPHK2)]; !ok {
		t.Fatal("missing omp/TPHK2 cell")
	}
}

func TestTracingOverheadPositiveAndSmall(t *testing.T) {
	p := tinyPlatform(t)
	rows, err := TracingOverheadExec(context.Background(), Executor{}, p, []string{"nbody"}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Same seeds with/without tracing: the only difference is overhead,
	// which must be positive and small.
	if r.IncreasePct <= 0 {
		t.Fatalf("tracing overhead should be positive: %+v", r)
	}
	if r.IncreasePct > 5 {
		t.Fatalf("tracing overhead implausibly large: %+v", r)
	}
}

func TestInjectionStudyStructure(t *testing.T) {
	p := tinyPlatform(t)
	st := InjectionStudy{
		Platforms: []*platform.Platform{p},
		Workload:  "nbody",
		Reps:      RepCounts{Collect: 10, Baseline: 3, Inject: 3},
		Seed:      2,
		Improved:  true,
	}
	res, err := st.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 1 {
		t.Fatalf("sections = %d", len(res.Sections))
	}
	sec := res.Sections[0]
	// Non-SMT platform: 2 models x 1 config = 2 rows.
	if len(sec.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(sec.Rows))
	}
	for _, row := range sec.Rows {
		if len(row.Cells) != 6 {
			t.Fatalf("row %s cells = %d", row.Label, len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.MeanSec <= 0 || c.BaseSec <= 0 {
				t.Fatalf("row %s has empty cells: %+v", row.Label, c)
			}
		}
	}
	if len(res.Configs[p.Name]) != 1 || len(res.Anomaly[p.Name]) != 1 {
		t.Fatal("configs/anomaly not recorded")
	}
	if !strings.Contains(sec.Rows[0].Label, "#1") {
		t.Fatalf("label %q should carry config id", sec.Rows[0].Label)
	}
}

// TestInjectionStudyBaselineOncePerStrategy: a baseline series does not
// depend on the config, so a study with two configs runs each (model,
// strategy) baseline once and both configs' rows report the same mean.
func TestInjectionStudyBaselineOncePerStrategy(t *testing.T) {
	p := platform.MustNew(machine.TinySMTTest)
	reg := obs.NewRegistry()
	reps := RepCounts{Collect: 4, Baseline: 2, Inject: 2}
	st := InjectionStudy{
		Platforms: []*platform.Platform{p}, Workload: "nbody", Reps: reps, Seed: 3,
		ConfigsPerPlatform: map[string]int{p.Name: 2},
		Exec:               Executor{Obs: &ObsOptions{Reg: reg}},
	}
	res, err := st.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Per config: one collection; per (model, SMT mode, column): one
	// baseline series for the study and one injected series per config.
	cols := len(Models) * 2 * len(mitigate.Columns())
	want := 2*reps.Collect + cols*reps.Baseline + 2*cols*reps.Inject
	if got := reg.Counter("repro_runs_total", "").Value(); got != uint64(want) {
		t.Fatalf("study ran %d reps, want %d", got, want)
	}
	rows := res.Sections[0].Rows
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Rows 0-3 belong to config #1 and rows 4-7 to config #2, in the same
	// (model, SMT) order; row 1 is the SMT twin of row 0.
	differs := false
	for i := 0; i < 4; i++ {
		for j, c := range rows[i].Cells {
			if other := rows[i+4].Cells[j]; other.BaseSec != c.BaseSec {
				t.Fatalf("%s and %s: column %d baselines %v vs %v",
					rows[i].Label, rows[i+4].Label, j, c.BaseSec, other.BaseSec)
			}
			differs = differs || rows[1].Cells[j].BaseSec != rows[0].Cells[j].BaseSec
		}
	}
	if !differs {
		t.Fatal("SMT and non-SMT rows share every baseline: the memo conflates them")
	}
}

func TestInjectionStudySMTRows(t *testing.T) {
	p := platform.MustNew(machine.TinySMTTest)
	st := InjectionStudy{
		Platforms: []*platform.Platform{p},
		Workload:  "nbody",
		Reps:      RepCounts{Collect: 8, Baseline: 2, Inject: 2},
		Seed:      3,
	}
	res, err := st.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// SMT platform: 2 models x 2 smt modes = 4 rows.
	if got := len(res.Sections[0].Rows); got != 4 {
		t.Fatalf("rows = %d, want 4", got)
	}
	sawSMT := false
	for _, row := range res.Sections[0].Rows {
		if row.SMT {
			sawSMT = true
			if !strings.Contains(row.Label, "SMT") {
				t.Fatalf("SMT row label %q", row.Label)
			}
		}
	}
	if !sawSMT {
		t.Fatal("no SMT rows")
	}
}

func TestAccuracyStudyTiny(t *testing.T) {
	cases := []AccuracyCase{{
		Workload: "nbody",
		Platform: machine.TinyTest,
		Source:   ConfigSource{Model: "omp", Strategy: mitigate.Rm, ID: 1},
	}}
	entries, err := AccuracyStudy{
		Cases: cases,
		Reps:  RepCounts{Collect: 15, Inject: 5},
		Seed:  4,
	}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.AnomalySec <= 0 || e.InjectedSec <= 0 {
		t.Fatalf("entry: %+v", e)
	}
	if e.AccuracyPct < 0 || e.AccuracyPct > 100 {
		t.Fatalf("accuracy out of range: %+v", e)
	}
	if MeanAccuracy(entries) != e.AccuracyPct {
		t.Fatal("mean of one entry should equal it")
	}
	if MeanAccuracy(nil) != 0 {
		t.Fatal("empty mean accuracy")
	}
}

func TestAccuracyHelper(t *testing.T) {
	abs, signed := Accuracy(1.1, 1.0)
	if abs < 0.0999 || abs > 0.1001 || signed < 0 {
		t.Fatalf("Accuracy(1.1, 1) = %v %v", abs, signed)
	}
	abs, signed = Accuracy(0.9, 1.0)
	if abs < 0.0999 || abs > 0.1001 || signed > 0 {
		t.Fatalf("Accuracy(0.9, 1) = %v %v", abs, signed)
	}
	if a, s := Accuracy(1, 0); a != 0 || s != 0 {
		t.Fatal("zero anomaly should not divide")
	}
}

func TestAggregateChange(t *testing.T) {
	mk := func(model string, vals []float64) InjectRow {
		row := InjectRow{Model: model}
		for _, v := range vals {
			row.Cells = append(row.Cells, InjectCell{ChangePct: v})
		}
		return row
	}
	res := &InjectionResult{Sections: []InjectSection{{
		Rows: []InjectRow{
			mk("omp", []float64{10, 20, 30, 40, 50, 60}),
			mk("omp", []float64{30, 40, 50, 60, 70, 80}),
			mk("sycl", []float64{1, 2, 3, 4, 5, 6}),
		},
	}}}
	agg := AggregateChange([]*InjectionResult{res})
	if agg["omp"][0] != 20 || agg["omp"][5] != 70 {
		t.Fatalf("omp agg: %v", agg["omp"])
	}
	if agg["sycl"][2] != 3 {
		t.Fatalf("sycl agg: %v", agg["sycl"])
	}
}

func TestPaperAccuracyCases(t *testing.T) {
	cases := PaperAccuracyCases()
	if len(cases) != 10 {
		t.Fatalf("paper has 10 worst-case traces, got %d", len(cases))
	}
	intel, amd := 0, 0
	for _, c := range cases {
		switch c.Platform {
		case machine.Intel9700KF:
			intel++
		case machine.AMD9950X3D:
			amd++
		}
		if c.Source.Strategy.SMT && c.Platform != machine.AMD9950X3D {
			t.Fatalf("SMT case on non-SMT platform: %+v", c)
		}
	}
	if intel != 6 || amd != 4 {
		t.Fatalf("paper: six Intel + four AMD traces, got %d + %d", intel, amd)
	}
}

func TestRepCountsScale(t *testing.T) {
	r := RepCounts{Collect: 100, Baseline: 10, Inject: 10}.Scale(0.1)
	if r.Collect != 10 || r.Baseline != 2 || r.Inject != 2 {
		t.Fatalf("scaled: %+v", r)
	}
}

func TestConfigSourceLabel(t *testing.T) {
	c := ConfigSource{Model: "omp", Strategy: mitigate.Rm.WithSMT()}
	if c.Label() != "Rm-SMT-OMP" {
		t.Fatalf("label = %q", c.Label())
	}
	c2 := ConfigSource{Model: "sycl", Strategy: mitigate.RmHK2}
	if c2.Label() != "RmHK2-SYCL" {
		t.Fatalf("label = %q", c2.Label())
	}
}

func TestSeedForDistinct(t *testing.T) {
	a := SeedFor(1, "x", "y")
	b := SeedFor(1, "x", "z")
	c := SeedFor(2, "x", "y")
	if a == b || a == c {
		t.Fatal("SeedFor should separate phases and bases")
	}
	if a != SeedFor(1, "x", "y") {
		t.Fatal("SeedFor must be deterministic")
	}
}

// TestAbsorptionFraction quantifies the housekeeping mechanism: with a
// spare core, more of the injected noise lands off the workload's CPUs.
func TestAbsorptionFraction(t *testing.T) {
	p := tinyPlatform(t)
	w := tinyWorkload(t, "nbody")
	cfg := &core.Config{
		Window: sim.Second,
		CPUs: []core.CPUEvents{{CPU: 0, Events: []core.NoiseEvent{
			{Start: sim.Millisecond, Duration: 5 * sim.Millisecond,
				Policy: "SCHED_OTHER", Class: cpusched.ClassThread, Source: "hog"},
			{Start: 10 * sim.Millisecond, Duration: 5 * sim.Millisecond,
				Policy: "SCHED_OTHER", Class: cpusched.ClassThread, Source: "hog"},
		}}},
	}
	run := func(strat mitigate.Strategy) Result {
		res, err := RunOnce(Spec{Platform: p, Workload: w, Model: "omp",
			Strategy: strat, Seed: 3, Inject: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(mitigate.Rm)  // all 4 CPUs busy: nothing to absorb into
	hk := run(mitigate.RmHK2) // 1 core free on the tiny machine
	if full.InjectorCPUTime <= 0 || hk.InjectorCPUTime <= 0 {
		t.Fatal("injector CPU time not accounted")
	}
	if hk.AbsorbedFraction() <= full.AbsorbedFraction() {
		t.Fatalf("housekeeping should absorb more: hk=%.2f full=%.2f",
			hk.AbsorbedFraction(), full.AbsorbedFraction())
	}
	if hk.AbsorbedFraction() < 0.9 {
		t.Fatalf("idle housekeeping core should absorb nearly all thread noise: %.2f",
			hk.AbsorbedFraction())
	}
	if (Result{}).AbsorbedFraction() != 0 {
		t.Fatal("zero result should have zero absorption")
	}
}
