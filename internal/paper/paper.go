// Package paper is the plan of the paper's evaluation, Tables 1-7 and
// Figures 1-2: which platforms, workloads, per-platform config counts and
// figure series build each artifact, and the named rep depths they run at.
// The noiselab table, figure, shapecheck and report commands and the go-test
// bench harness all build through a Plan, so the makeup is written once.
package paper

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/report"
)

// Seed is the base seed of every paper artifact.
const Seed = 20250706

// Platforms are the platforms of Tables 2-6; Table 1 runs on the first.
var Platforms = []string{machine.Intel9700KF, machine.AMD9950X3D}

// Workloads are the workloads of Tables 1-6, in table order: Tables 3, 4
// and 5 are their injection studies.
var Workloads = []string{"nbody", "babelstream", "minife"}

// The named depths (the paper itself uses 1000/1000/200).
var (
	// Bench is the go-test bench harness depth, small enough that
	// `go test -bench .` completes in minutes.
	Bench = experiment.RepCounts{Collect: 60, Baseline: 8, Inject: 8}
	// CLI is the depth of the noiselab table commands and report at
	// -scale 1.
	CLI = experiment.RepCounts{Collect: 150, Baseline: 25, Inject: 25}
)

// ParseScale parses a depth multiplier (noiselab -scale, REPRO_SCALE). It
// must be finite and positive: RepCounts.Scale floors every count at 2, so
// a zero or negative scale would silently run a 2-rep study.
func ParseScale(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("scale %q: must be a finite number > 0", s)
	}
	return f, nil
}

// A Figure is one motivation figure: the series behind it and its titles.
type Figure struct {
	Series func(context.Context, experiment.Executor, int, uint64) ([]experiment.FigureSeries, error)
	// Title heads the figure in report and the bench harness;
	// CommandTitle heads it above the fig1/fig2 commands' box plots.
	Title, CommandTitle string
}

// Figures holds Figures 1 and 2, in order.
var Figures = []Figure{
	{experiment.Figure1Exec, "schedbench exec time (ms), reserved vs w/o",
		"schedbench exec time (ms), A64FX reserved vs w/o"},
	{experiment.Figure2Exec, "Babelstream dot exec time (ms) vs threads",
		"Babelstream dot exec time (ms) vs threads"},
}

// IDs lists the artifacts a Plan builds, in paper order.
var IDs = []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig1", "fig2"}

// An Artifact is one built table or figure.
type Artifact struct {
	Table *report.Table
	// Checks are the paper's headline shape checks (table6 only).
	Checks []report.ShapeCheck
	// Metrics are the artifact's headline numbers by unit, which the bench
	// harness reports.
	Metrics map[string]float64
}

// A Plan builds the paper's artifacts at one depth. It runs each of the
// Tables 3-5 injection studies at most once and reuses them for Table 6.
// A Plan is not safe for concurrent use.
type Plan struct {
	Exec experiment.Executor
	Reps experiment.RepCounts
	Seed uint64
	// FigReps is the rep count of each figure box.
	FigReps int
	// Table2Platforms replaces Platforms in Table 2 when set (noiselab
	// table2 -platforms).
	Table2Platforms []string
	// OriginalMerge builds Table 7's configs with the original pessimistic
	// merge instead of the improved one (noiselab table7 -original).
	OriginalMerge bool

	studies map[string]*experiment.InjectionResult
}

// Build builds the artifact named id, one of IDs.
func (p *Plan) Build(ctx context.Context, id string) (*Artifact, error) {
	switch id {
	case "table1":
		return p.table1(ctx)
	case "table2":
		return p.table2(ctx)
	case "table3", "table4", "table5":
		num := int(id[5] - '0')
		res, err := p.injection(ctx, Workloads[num-3])
		if err != nil {
			return nil, err
		}
		agg := experiment.AggregateChange([]*experiment.InjectionResult{res})
		return &Artifact{Table: report.InjectionTable(num, res), Metrics: map[string]float64{
			"omp-Rm-change-%": agg["omp"][0], "sycl-Rm-change-%": agg["sycl"][0],
		}}, nil
	case "table6":
		return p.table6(ctx)
	case "table7":
		return p.table7(ctx)
	case "fig1", "fig2":
		return p.figure(ctx, int(id[3]-'0'))
	}
	return nil, fmt.Errorf("paper: unknown artifact %q", id)
}

// table1 measures Table 1: tracing overhead on the first platform at the
// baseline rep count.
func (p *Plan) table1(ctx context.Context) (*Artifact, error) {
	plat, err := platform.New(Platforms[0])
	if err != nil {
		return nil, err
	}
	rows, err := experiment.TracingOverheadExec(ctx, p.Exec, plat, Workloads, p.Reps.Baseline, p.Seed)
	if err != nil {
		return nil, err
	}
	var worst float64
	for _, r := range rows {
		if r.IncreasePct > worst {
			worst = r.IncreasePct
		}
	}
	return &Artifact{Table: report.Table1(rows), Metrics: map[string]float64{"max-overhead-%": worst}}, nil
}

// table2 measures Table 2: the baseline study of every paper workload on
// each platform, at the baseline rep count.
func (p *Plan) table2(ctx context.Context) (*Artifact, error) {
	names := p.Table2Platforms
	if names == nil {
		names = Platforms
	}
	var results []*experiment.BaselineResult
	for _, name := range names {
		plat, err := platform.New(name)
		if err != nil {
			return nil, err
		}
		for _, w := range Workloads {
			res, err := (experiment.BaselineStudy{
				Platform: plat, Workload: w, Reps: p.Reps.Baseline, Seed: p.Seed,
				Exec: p.Exec,
			}).RunContext(ctx)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return &Artifact{Table: report.Table2(results)}, nil
}

// injection returns the injection study behind Table 3, 4 or 5 for one
// workload, running it on the first call: improved-merge configs on the
// paper platforms.
func (p *Plan) injection(ctx context.Context, workload string) (*experiment.InjectionResult, error) {
	if res, ok := p.studies[workload]; ok {
		return res, nil
	}
	// Alternate worst-case configs per platform follow the paper's rows:
	// two on Intel for every workload; one on AMD, two for MiniFE.
	cfgPer := map[string]int{machine.Intel9700KF: 2, machine.AMD9950X3D: 1}
	if workload == "minife" {
		cfgPer[machine.AMD9950X3D] = 2
	}
	var plats []*platform.Platform
	for _, name := range Platforms {
		plat, err := platform.New(name)
		if err != nil {
			return nil, err
		}
		plats = append(plats, plat)
	}
	res, err := (experiment.InjectionStudy{
		Platforms:          plats,
		Workload:           workload,
		Reps:               p.Reps,
		Seed:               p.Seed,
		Improved:           true,
		ConfigsPerPlatform: cfgPer,
		Exec:               p.Exec,
	}).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if p.studies == nil {
		p.studies = map[string]*experiment.InjectionResult{}
	}
	p.studies[workload] = res
	return res, nil
}

// table6 aggregates Tables 3-5 into Table 6 and runs the shape checks.
func (p *Plan) table6(ctx context.Context) (*Artifact, error) {
	var all []*experiment.InjectionResult
	for _, w := range Workloads {
		res, err := p.injection(ctx, w)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
	}
	agg := experiment.AggregateChange(all)
	checks := report.CheckInjectionShape(agg)
	pass := 0
	for _, c := range checks {
		if c.Pass {
			pass++
		}
	}
	return &Artifact{Table: report.Table6(agg), Checks: checks, Metrics: map[string]float64{
		"shape-checks-passed": float64(pass), "shape-checks-total": float64(len(checks)),
	}}, nil
}

// table7 measures Table 7: replay accuracy of the paper's ten cases.
func (p *Plan) table7(ctx context.Context) (*Artifact, error) {
	entries, err := (experiment.AccuracyStudy{
		Cases:    experiment.PaperAccuracyCases(),
		Reps:     p.Reps,
		Seed:     p.Seed,
		Improved: !p.OriginalMerge,
		Exec:     p.Exec,
	}).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Artifact{Table: report.Table7(entries),
		Metrics: map[string]float64{"mean-accuracy-%": experiment.MeanAccuracy(entries)}}, nil
}

// figure builds Figure num (1 or 2) at FigReps reps per box.
func (p *Plan) figure(ctx context.Context, num int) (*Artifact, error) {
	fig := Figures[num-1]
	series, err := fig.Series(ctx, p.Exec, p.FigReps, p.Seed)
	if err != nil {
		return nil, err
	}
	maxSD := func(system string) float64 {
		var worst float64
		for _, s := range series {
			if s.System == system && s.SD > worst {
				worst = s.SD
			}
		}
		return worst
	}
	return &Artifact{Table: report.Figure(num, fig.Title, series), Metrics: map[string]float64{
		"wo-max-sd-ms": maxSD("A64FX:w/o"), "rsv-max-sd-ms": maxSD("A64FX:reserved"),
	}}, nil
}
