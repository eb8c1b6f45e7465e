package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/stats"
)

// RepCounts sets how many executions each study phase performs. The paper
// uses Collect/Baseline = 1000 and Inject = 200; the named depths this
// repository runs at are in internal/paper.
type RepCounts struct {
	// Collect is the number of traced runs used to hunt the worst case
	// and average the inherent noise (stage 1).
	Collect int
	// Baseline is the rep count for baseline statistics per config.
	Baseline int
	// Inject is the rep count per injection experiment.
	Inject int
}

// Scale multiplies all rep counts by f (minimum 2 each).
func (r RepCounts) Scale(f float64) RepCounts {
	s := func(n int) int {
		v := int(float64(n) * f)
		if v < 2 {
			v = 2
		}
		return v
	}
	return RepCounts{Collect: s(r.Collect), Baseline: s(r.Baseline), Inject: s(r.Inject)}
}

// SeedFor derives a deterministic sub-seed for a named phase: the FNV-style
// tag fold every study uses, exported so out-of-package sweeps (the
// bottleneck analysis) derive per-cell seeds on the same schedule the
// studies do.
func SeedFor(base uint64, tags ...string) uint64 {
	h := base ^ 0x9e3779b97f4a7c15
	for _, t := range tags {
		for i := 0; i < len(t); i++ {
			h ^= uint64(t[i])
			h *= 1099511628211
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Baseline study (Table 2 and the baselines behind Tables 3-5)
// ---------------------------------------------------------------------------

// BaselineCell is one (model, strategy) baseline measurement.
type BaselineCell struct {
	Model    string
	Strategy mitigate.Strategy
	Summary  stats.Summary // over execution times, in milliseconds
}

// BaselineStudy measures run-to-run variability without injection for every
// model and strategy of one workload on one platform.
type BaselineStudy struct {
	Platform *platform.Platform
	Workload string
	Reps     int
	Seed     uint64
	// SMT additionally measures the SMT-enabled strategies (AMD rows).
	SMT bool
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec Executor
}

// BaselineResult maps "model/strategy" to its cell.
type BaselineResult struct {
	Workload string
	Platform string
	Cells    map[string]BaselineCell
}

// Key builds the lookup key used by Cells.
func Key(model string, strat mitigate.Strategy) string {
	return model + "/" + strat.Name()
}

// RunContext executes the study under ctx; cancellation stops the series
// in flight and surfaces the context error.
func (b BaselineStudy) RunContext(ctx context.Context) (*BaselineResult, error) {
	b.Exec = b.Exec.withWorlds()
	w, err := b.Platform.WorkloadSpec(b.Workload)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{
		Workload: b.Workload,
		Platform: b.Platform.Name,
		Cells:    make(map[string]BaselineCell),
	}
	strategies := mitigate.Columns()
	if b.SMT {
		for _, s := range mitigate.Columns() {
			strategies = append(strategies, s.WithSMT())
		}
	}
	prog := b.Exec.cells(len(Models) * len(strategies))
	for _, model := range Models {
		for _, strat := range strategies {
			spec := Spec{
				Platform: b.Platform,
				Workload: w,
				Model:    model,
				Strategy: strat,
				Seed:     SeedFor(b.Seed, "baseline", b.Workload, model, strat.Name()),
				Tracing:  true,
			}
			times, err := b.Exec.SeriesTimes(ctx, spec, b.Reps)
			if err != nil {
				return nil, fmt.Errorf("baseline %s/%s/%s: %w", b.Workload, model, strat.Name(), err)
			}
			res.Cells[Key(model, strat)] = BaselineCell{
				Model:    model,
				Strategy: strat,
				Summary:  stats.SummarizeTimes(times),
			}
			prog.finish("baseline " + b.Workload + " " + Key(model, strat))
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Worst-case config construction (stage 1+2 for the injection studies)
// ---------------------------------------------------------------------------

// ConfigSource describes which workload configuration a worst-case trace is
// hunted under (the paper's ten configs span several of these).
type ConfigSource struct {
	Model    string
	Strategy mitigate.Strategy
	// ID distinguishes alternate configs (#1, #2) from the same source
	// configuration via different collection seeds.
	ID int
}

// Label renders like "Rm-OMP" / "TPHK-SMT-OMP", the style of Table 7.
func (c ConfigSource) Label() string {
	name := c.Strategy.Name()
	model := "OMP"
	if c.Model == "sycl" {
		model = "SYCL"
	}
	return name + "-" + model
}

// BuildConfigExec hunts a worst case for the given source configuration
// under e and ctx, and generates its injection config. It keeps every
// collected trace in PipelineResult.Traces for its callers outside this
// package that read them: gen-config's summary, the examples, and
// perfbench, which pins this entry point because it re-times the profile
// stage on those traces. The studies hunt through huntConfig, which keeps
// none.
func BuildConfigExec(ctx context.Context, e Executor, p *platform.Platform, workload string,
	src ConfigSource, collectRuns int, improved bool, seed uint64) (*core.Config, *PipelineResult, error) {
	return huntConfig(ctx, e, p, workload, src, collectRuns, improved, seed, true)
}

// huntConfig is BuildConfigExec that keeps the collected traces only when
// keep is set; otherwise the hunt holds one trace at a time.
func huntConfig(ctx context.Context, e Executor, p *platform.Platform, workload string,
	src ConfigSource, collectRuns int, improved bool, seed uint64, keep bool) (*core.Config, *PipelineResult, error) {
	w, err := p.WorkloadSpec(workload)
	if err != nil {
		return nil, nil, err
	}
	pl := Pipeline{
		Spec: Spec{
			Platform: p,
			Workload: w,
			Model:    src.Model,
			Strategy: src.Strategy,
			Seed:     SeedFor(seed, "collect", workload, src.Model, src.Strategy.Name(), fmt.Sprint(src.ID)),
		},
		CollectRuns: collectRuns,
		Improved:    improved,
		Exec:        e,
	}
	pr, err := pl.run(ctx, keep)
	if err != nil {
		return nil, nil, err
	}
	return pr.Config, pr, nil
}

// ---------------------------------------------------------------------------
// Injection study (Tables 3-5)
// ---------------------------------------------------------------------------

// InjectCell is one strategy column of an injection row.
type InjectCell struct {
	// MeanSec is the average injected execution time in seconds.
	MeanSec float64
	// ChangePct is the percentage increase vs the matching baseline.
	ChangePct float64
	// BaseSec is the baseline mean in seconds.
	BaseSec float64
	// SD is the injected run standard deviation in ms.
	SD float64
}

// InjectRow is one row of Tables 3-5: a (model, SMT, config#) combination
// across the six strategy columns.
type InjectRow struct {
	Label    string
	Model    string
	SMT      bool
	ConfigID int
	Cells    []InjectCell // indexed like mitigate.Columns()
}

// InjectSection is one platform block of a table.
type InjectSection struct {
	Platform string
	Rows     []InjectRow
}

// InjectionStudy produces one workload's table (3, 4, or 5).
type InjectionStudy struct {
	Platforms []*platform.Platform
	Workload  string
	Reps      RepCounts
	Seed      uint64
	Improved  bool
	// ConfigsPerPlatform is how many alternate worst-case configs (#1,
	// #2, ...) to build per platform; the paper varies this per table.
	ConfigsPerPlatform map[string]int
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec Executor
}

// InjectionResult is the full table plus the artifacts behind it.
type InjectionResult struct {
	Workload string
	Sections []InjectSection
	// Configs maps platform name to its ordered configs.
	Configs map[string][]*core.Config
	// Anomaly maps platform name to each config's worst-case exec (sec).
	Anomaly map[string][]float64
}

// configsFor resolves how many alternate configs a platform gets.
func (st InjectionStudy) configsFor(p *platform.Platform) int {
	if st.ConfigsPerPlatform != nil {
		if v, ok := st.ConfigsPerPlatform[p.Name]; ok {
			return v
		}
	}
	return 1
}

// cellCount is the number of progress cells the study will report: one per
// worst-case pipeline plus one per (row, strategy column).
func (st InjectionStudy) cellCount() int {
	total := 0
	for _, p := range st.Platforms {
		nCfg := st.configsFor(p)
		smtModes := 1
		if p.HasSMT {
			smtModes = 2
		}
		total += nCfg + nCfg*len(Models)*smtModes*len(mitigate.Columns())
	}
	return total
}

// RunContext executes the study under ctx.
func (st InjectionStudy) RunContext(ctx context.Context) (*InjectionResult, error) {
	st.Exec = st.Exec.withWorlds()
	out := &InjectionResult{
		Workload: st.Workload,
		Configs:  make(map[string][]*core.Config),
		Anomaly:  make(map[string][]float64),
	}
	prog := st.Exec.cells(st.cellCount())
	for _, p := range st.Platforms {
		nCfg := st.configsFor(p)
		// Stage 1+2: build the worst-case configs (paper: predominantly
		// from OpenMP roaming runs).
		var cfgs []*core.Config
		for id := 1; id <= nCfg; id++ {
			cfg, pr, err := huntConfig(ctx, st.Exec, p, st.Workload,
				ConfigSource{Model: "omp", Strategy: mitigate.Rm, ID: id},
				st.Reps.Collect, st.Improved, st.Seed, false)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
			out.Anomaly[p.Name] = append(out.Anomaly[p.Name], pr.Worst.ExecTime.Seconds())
			prog.finish(fmt.Sprintf("config %s #%d", p.Name, id))
		}
		out.Configs[p.Name] = cfgs

		sec := InjectSection{Platform: p.Name}
		smtModes := []bool{false}
		if p.HasSMT {
			smtModes = append(smtModes, true)
		}
		// A baseline series depends on the platform, model and strategy
		// but not on the config, so every config's row shares it.
		baseMs := make(map[string]float64)
		for id, cfg := range cfgs {
			for _, model := range Models {
				for _, smt := range smtModes {
					row, err := st.injectRow(ctx, prog, p, model, smt, id+1, cfg, baseMs)
					if err != nil {
						return nil, err
					}
					sec.Rows = append(sec.Rows, *row)
				}
			}
		}
		out.Sections = append(out.Sections, sec)
	}
	return out, nil
}

// injectRow runs one row's strategy columns. baseMs memoizes the
// platform's baseline means by Key(model, strategy): the first row that
// needs a baseline series runs it, and later configs' rows reuse its mean.
func (st InjectionStudy) injectRow(ctx context.Context, prog *cellTracker, p *platform.Platform, model string, smt bool,
	cfgID int, cfg *core.Config, baseMs map[string]float64) (*InjectRow, error) {
	wl, err := p.WorkloadSpec(st.Workload)
	if err != nil {
		return nil, err
	}
	label := "OMP"
	if model == "sycl" {
		label = "SYCL"
	}
	if smt {
		label += " SMT"
	}
	label += fmt.Sprintf(" #%d", cfgID)
	row := &InjectRow{Label: label, Model: model, SMT: smt, ConfigID: cfgID}
	for _, strat := range mitigate.Columns() {
		if smt {
			strat = strat.WithSMT()
		}
		baseSpec := Spec{
			Platform: p, Workload: wl, Model: model, Strategy: strat,
			Seed:    SeedFor(st.Seed, "ibase", st.Workload, model, strat.Name()),
			Tracing: true,
		}
		key := Key(model, strat)
		base, ok := baseMs[key]
		if !ok {
			baseTimes, err := st.Exec.SeriesTimes(ctx, baseSpec, st.Reps.Baseline)
			if err != nil {
				return nil, err
			}
			base = stats.SummarizeTimes(baseTimes).Mean
			baseMs[key] = base
		}
		injSpec := baseSpec
		injSpec.Tracing = false
		injSpec.Inject = cfg
		injSpec.Seed = SeedFor(st.Seed, "inj", st.Workload, model, strat.Name(), fmt.Sprint(cfgID))
		injTimes, err := st.Exec.SeriesTimes(ctx, injSpec, st.Reps.Inject)
		if err != nil {
			return nil, err
		}
		inj := stats.SummarizeTimes(injTimes)
		row.Cells = append(row.Cells, InjectCell{
			MeanSec:   inj.Mean / 1000,
			BaseSec:   base / 1000,
			ChangePct: stats.RelChange(base, inj.Mean),
			SD:        inj.SD,
		})
		prog.finish(fmt.Sprintf("inject %s %s %s %s", p.Name, st.Workload, label, strat.Name()))
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// Tracing overhead (Table 1)
// ---------------------------------------------------------------------------

// OverheadRow is one workload's tracing-overhead measurement.
type OverheadRow struct {
	Workload    string
	OffSec      float64
	OnSec       float64
	IncreasePct float64
}

// TracingOverheadExec measures baseline executions with tracing off and on
// (OMP, roaming), reproducing Table 1.
func TracingOverheadExec(ctx context.Context, e Executor, p *platform.Platform,
	workloadNames []string, reps int, seed uint64) ([]OverheadRow, error) {
	var rows []OverheadRow
	prog := e.cells(2 * len(workloadNames))
	for _, name := range workloadNames {
		w, err := p.WorkloadSpec(name)
		if err != nil {
			return nil, err
		}
		spec := Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm,
			Seed: SeedFor(seed, "overhead", name),
		}
		off, err := e.SeriesTimes(ctx, spec, reps)
		if err != nil {
			return nil, err
		}
		prog.finish("overhead " + name + " tracing-off")
		spec.Tracing = true
		on, err := e.SeriesTimes(ctx, spec, reps)
		if err != nil {
			return nil, err
		}
		prog.finish("overhead " + name + " tracing-on")
		offMean := stats.SummarizeTimes(off).Mean / 1000
		onMean := stats.SummarizeTimes(on).Mean / 1000
		rows = append(rows, OverheadRow{
			Workload:    name,
			OffSec:      offMean,
			OnSec:       onMean,
			IncreasePct: stats.RelChange(offMean, onMean),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Accuracy study (Table 7)
// ---------------------------------------------------------------------------

// AccuracyEntry is one Table-7 row: a worst-case trace replayed under its
// own workload configuration.
type AccuracyEntry struct {
	Benchmark string
	Platform  string
	Source    ConfigSource
	// AnomalySec is the worst-case trace's execution time.
	AnomalySec float64
	// InjectedSec is the mean execution time under injection.
	InjectedSec float64
	// AccuracyPct is |Injected/Anomaly - 1| * 100; SignedPct keeps the
	// sign (negative = replay ran faster than the anomaly).
	AccuracyPct float64
	SignedPct   float64
}

// AccuracyCase names one Table-7 configuration.
type AccuracyCase struct {
	Workload string
	Platform string
	Source   ConfigSource
}

// PaperAccuracyCases returns the ten worst-case trace configurations of
// Table 7 (six from the Intel platform, four from the AMD platform; SMT
// rows are necessarily AMD).
func PaperAccuracyCases() []AccuracyCase {
	intel, amd := machine.Intel9700KF, machine.AMD9950X3D
	omp, sycl := "omp", "sycl"
	return []AccuracyCase{
		{"nbody", intel, ConfigSource{omp, mitigate.Rm, 1}},
		{"nbody", intel, ConfigSource{omp, mitigate.TP, 1}},
		{"nbody", amd, ConfigSource{omp, mitigate.Rm.WithSMT(), 1}},
		{"babelstream", intel, ConfigSource{omp, mitigate.Rm, 1}},
		{"babelstream", intel, ConfigSource{omp, mitigate.TP, 1}},
		{"babelstream", amd, ConfigSource{sycl, mitigate.TP, 1}},
		{"minife", intel, ConfigSource{omp, mitigate.Rm, 1}},
		{"minife", intel, ConfigSource{omp, mitigate.TPHK2, 1}},
		{"minife", amd, ConfigSource{omp, mitigate.TPHK.WithSMT(), 1}},
		{"minife", amd, ConfigSource{sycl, mitigate.RmHK2, 1}},
	}
}

// AccuracyStudy measures replication accuracy for a set of cases.
type AccuracyStudy struct {
	Cases    []AccuracyCase
	Reps     RepCounts
	Seed     uint64
	Improved bool
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec Executor
}

// RunContext builds each case's config and replays it under the same
// workload configuration it was captured from.
func (st AccuracyStudy) RunContext(ctx context.Context) ([]AccuracyEntry, error) {
	st.Exec = st.Exec.withWorlds()
	var out []AccuracyEntry
	plats := map[string]*platform.Platform{}
	prog := st.Exec.cells(len(st.Cases))
	for _, c := range st.Cases {
		p, ok := plats[c.Platform]
		if !ok {
			var err error
			p, err = platform.New(c.Platform)
			if err != nil {
				return nil, err
			}
			plats[c.Platform] = p
		}
		entry, err := st.runCase(ctx, p, c)
		if err != nil {
			return nil, fmt.Errorf("accuracy %s/%s/%s: %w", c.Workload, c.Platform, c.Source.Label(), err)
		}
		out = append(out, *entry)
		prog.finish(fmt.Sprintf("accuracy %s %s %s", c.Workload, c.Platform, c.Source.Label()))
	}
	return out, nil
}

func (st AccuracyStudy) runCase(ctx context.Context, p *platform.Platform, c AccuracyCase) (*AccuracyEntry, error) {
	cfg, pr, err := huntConfig(ctx, st.Exec, p, c.Workload, c.Source, st.Reps.Collect, st.Improved, st.Seed, false)
	if err != nil {
		return nil, err
	}
	w, err := p.WorkloadSpec(c.Workload)
	if err != nil {
		return nil, err
	}
	spec := Spec{
		Platform: p, Workload: w, Model: c.Source.Model, Strategy: c.Source.Strategy,
		Seed:   SeedFor(st.Seed, "acc", c.Workload, c.Source.Label()),
		Inject: cfg,
	}
	times, err := st.Exec.SeriesTimes(ctx, spec, st.Reps.Inject)
	if err != nil {
		return nil, err
	}
	injected := stats.SummarizeTimes(times).Mean / 1000
	anomaly := pr.Worst.ExecTime.Seconds()
	abs, signed := Accuracy(injected, anomaly)
	return &AccuracyEntry{
		Benchmark:   c.Workload,
		Platform:    p.Name,
		Source:      c.Source,
		AnomalySec:  anomaly,
		InjectedSec: injected,
		AccuracyPct: abs * 100,
		SignedPct:   signed * 100,
	}, nil
}

// MeanAccuracy returns the average absolute accuracy across entries (the
// paper reports 8.57%).
func MeanAccuracy(entries []AccuracyEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	var sum float64
	for _, e := range entries {
		sum += e.AccuracyPct
	}
	return sum / float64(len(entries))
}

// ---------------------------------------------------------------------------
// Table 6 aggregation
// ---------------------------------------------------------------------------

// AggregateChange averages the relative performance change per (model,
// strategy column) across all rows of the given tables — Table 6.
// SMT rows aggregate into their model like the paper does.
func AggregateChange(tables []*InjectionResult) map[string][]float64 {
	sums := map[string][]float64{"omp": make([]float64, 6), "sycl": make([]float64, 6)}
	counts := map[string][]int{"omp": make([]int, 6), "sycl": make([]int, 6)}
	for _, t := range tables {
		for _, sec := range t.Sections {
			for _, row := range sec.Rows {
				for i, cell := range row.Cells {
					sums[row.Model][i] += cell.ChangePct
					counts[row.Model][i]++
				}
			}
		}
	}
	out := make(map[string][]float64)
	for model, s := range sums {
		avg := make([]float64, len(s))
		for i := range s {
			if counts[model][i] > 0 {
				avg[i] = s[i] / float64(counts[model][i])
			}
		}
		out[model] = avg
	}
	return out
}
