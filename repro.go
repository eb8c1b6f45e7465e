// Package repro is the public API of noiselab, a reproduction of
// "Reproducible Performance Evaluation of OpenMP and SYCL Workloads under
// Noise Injection" (SC-W '25). It exposes the noise-injector pipeline
// (trace collection → delta refinement → config generation → replay), the
// simulated platforms and workloads, the mitigation strategies, and the
// studies that regenerate every table and figure of the paper.
//
// The heavy lifting lives in internal packages; this package re-exports the
// surface a downstream user needs:
//
//	p, _ := repro.NewPlatform(repro.Intel9700KF)
//	w, _ := p.WorkloadSpec("babelstream")
//	cfg, pipeline, _ := repro.BuildConfigExec(context.Background(), repro.Executor{},
//	    p, "babelstream", repro.ConfigSource{Model: "omp", Strategy: repro.Rm, ID: 1}, 200, true, 1)
//	res, _ := repro.RunOnce(repro.Spec{
//	    Platform: p, Workload: w, Model: "omp", Strategy: repro.RmHK,
//	    Seed: 7, Inject: cfg,
//	})
//	fmt.Println(res.ExecTime, pipeline.Worst.ExecTime)
package repro

import (
	"context"
	"io"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Platform preset names.
const (
	Intel9700KF = machine.Intel9700KF
	AMD9950X3D  = machine.AMD9950X3D
	A64FXRsv    = machine.A64FXRsv
	A64FXNoRsv  = machine.A64FXNoRsv
)

// Core types re-exported for downstream use.
type (
	// Platform bundles machine topology, noise profile and scheduler
	// options for one experimental platform.
	Platform = platform.Platform
	// Workload is a named simulation cost model.
	Workload = workloads.Workload
	// Strategy is a mitigation configuration (pinning, housekeeping, SMT).
	Strategy = mitigate.Strategy
	// Plan is the concrete execution plan a strategy yields on a machine.
	Plan = mitigate.Plan
	// Config is a generated noise-injection configuration (Figure 5).
	Config = core.Config
	// NoiseEvent is one event of a Config.
	NoiseEvent = core.NoiseEvent
	// Trace is an osnoise-style execution trace (Figure 3).
	Trace = trace.Trace
	// Profile is the per-source average noise profile of a trace set.
	Profile = trace.Profile
	// Spec describes one simulated execution.
	Spec = experiment.Spec
	// Result is the outcome of one execution.
	Result = experiment.Result
	// Pipeline bundles the three-stage injector flow.
	Pipeline = experiment.Pipeline
	// PipelineResult carries the pipeline's artifacts.
	PipelineResult = experiment.PipelineResult
	// ConfigSource names the workload configuration a worst case is
	// hunted under.
	ConfigSource = experiment.ConfigSource
	// RepCounts sets study repetition counts.
	RepCounts = experiment.RepCounts
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Executor is the deterministic parallel execution layer: it fans the
	// independent (spec, seed) reps of a series over a bounded worker
	// pool with output bit-identical to sequential execution. The zero
	// value uses GOMAXPROCS workers; Parallelism: 1
	// forces sequential. Executor.Series runs one series; every study type
	// carries one in its Exec field.
	Executor = experiment.Executor
	// ProgressFunc receives study-cell completion updates (Executor.OnCell).
	ProgressFunc = experiment.ProgressFunc
	// WorldPool holds warm per-(topology, scheduler-options) worlds that
	// series reset and reuse between reps (Executor.Worlds). Safe for
	// concurrent use; share one across studies to reuse construction work.
	WorldPool = experiment.WorldPool
)

// NewWorldPool returns an empty warm-world pool for Executor.Worlds.
func NewWorldPool() *WorldPool { return experiment.NewWorldPool() }

// ModelVersion identifies the simulation semantics; runs are pure
// functions of (spec, seed, ModelVersion). The noiselabd result cache
// folds it into every cache key, so bumping it (done whenever a change
// could alter simulated output) invalidates stale cached results.
const ModelVersion = experiment.ModelVersion

// Mitigation strategy columns (paper §5 labels).
var (
	Rm    = mitigate.Rm
	RmHK  = mitigate.RmHK
	RmHK2 = mitigate.RmHK2
	TP    = mitigate.TP
	TPHK  = mitigate.TPHK
	TPHK2 = mitigate.TPHK2
)

// Strategies returns the six strategy columns in paper order.
func Strategies() []Strategy { return mitigate.Columns() }

// NewPlatform returns a platform by preset name (see the exported
// constants; PlatformNames lists them).
func NewPlatform(name string) (*Platform, error) { return platform.New(name) }

// PlatformNames lists the platforms with full experiment support.
func PlatformNames() []string { return platform.Names() }

// WorkloadNames lists the available workloads.
func WorkloadNames() []string { return workloads.Names() }

// RunOnce executes one simulated run.
func RunOnce(spec Spec) (Result, error) { return experiment.RunOnce(spec) }

// BuildConfigExec runs injector stages 1+2 under e and ctx: collect traces
// under the source configuration, select the worst case, subtract the
// average noise, and generate the injection config (improved or original
// merge).
func BuildConfigExec(ctx context.Context, e Executor, p *Platform, workload string,
	src ConfigSource, collectRuns int, improved bool, seed uint64) (*Config, *PipelineResult, error) {
	return experiment.BuildConfigExec(ctx, e, p, workload, src, collectRuns, improved, seed)
}

// Refine subtracts the average inherent noise from a worst-case trace
// (§4.2, Figure 4).
func Refine(worst *Trace, profile *Profile) *Trace { return core.Refine(worst, profile) }

// Generate builds the injection config from a refined trace (Figure 5).
func Generate(refined *Trace, improved bool) *Config { return core.Generate(refined, improved) }

// BuildProfile aggregates per-source statistics over traces.
func BuildProfile(traces []*Trace) *Profile { return trace.BuildProfile(traces) }

// WorstCase selects the slowest execution from a trace set.
func WorstCase(traces []*Trace) (*Trace, int, error) { return trace.WorstCase(traces) }

// WriteTraceText renders a trace in the paper's Figure-3 text format.
func WriteTraceText(w io.Writer, tr *Trace) error { return trace.WriteText(w, tr) }

// ReadTraceText parses the Figure-3 text format.
func ReadTraceText(r io.Reader) (*Trace, error) { return trace.ReadText(r) }

// Studies and rendering (Tables 1-7, Figures 1-2).
type (
	// BaselineStudy measures run-to-run variability per model/strategy.
	BaselineStudy = experiment.BaselineStudy
	// BaselineResult holds a baseline study's cells.
	BaselineResult = experiment.BaselineResult
	// InjectionStudy produces a Tables-3/4/5 dataset for one workload.
	InjectionStudy = experiment.InjectionStudy
	// InjectionResult is the dataset behind an injection table.
	InjectionResult = experiment.InjectionResult
	// AccuracyStudy measures replay accuracy (Table 7).
	AccuracyStudy = experiment.AccuracyStudy
	// AccuracyEntry is one Table-7 row.
	AccuracyEntry = experiment.AccuracyEntry
	// AccuracyCase names one Table-7 configuration.
	AccuracyCase = experiment.AccuracyCase
	// OverheadRow is one Table-1 row.
	OverheadRow = experiment.OverheadRow
	// FigureSeries is one box of a motivation figure.
	FigureSeries = experiment.FigureSeries
	// IntensitySweep replays amplified worst cases across strategies.
	IntensitySweep = experiment.IntensitySweep
	// IntensityPoint is one sweep measurement.
	IntensityPoint = experiment.IntensityPoint
	// RenderTable is a renderable text/CSV table.
	RenderTable = report.Table
	// Advisor benchmarks strategies and recommends one (paper §6).
	Advisor = advisor.Advisor
	// Objective weights average vs worst-case time in recommendations.
	Objective = advisor.Objective
	// Recommendation is the advisor's output.
	Recommendation = advisor.Recommendation
	// MemoryNoiseSpec builds synthetic memory-interference configs (§7).
	MemoryNoiseSpec = core.MemoryNoiseSpec
)

// Simulated datacenter: the multi-node layer behind `noiselab cluster`.
type (
	// ClusterSpec describes one cluster scenario (nodes, straggler,
	// tenants, fork-join job shape, placement policy).
	ClusterSpec = cluster.Spec
	// ClusterRunResult is the deterministic outcome of one cluster run.
	ClusterRunResult = cluster.Result
	// ClusterStudy compares placement policies on one scenario.
	ClusterStudy = experiment.ClusterStudy
	// ClusterStudyResult holds the study's per-policy cells.
	ClusterStudyResult = experiment.ClusterStudyResult
	// ClusterCell is one policy's aggregated outcome.
	ClusterCell = experiment.ClusterCell
)

// Placement policy names accepted by ClusterSpec.Policy.
const (
	PolicyRandom     = cluster.PolicyRandom
	PolicyRoundRobin = cluster.PolicyRoundRobin
	PolicyLeastLoad  = cluster.PolicyLeastLoad
	PolicyNoiseAware = cluster.PolicyNoiseAware
)

// PolicyNames lists the available placement policies.
func PolicyNames() []string { return cluster.PolicyNames() }

// RunCluster executes one cluster run: a pure function of (spec, seed).
func RunCluster(spec ClusterSpec, seed uint64) (*ClusterRunResult, error) {
	return cluster.Run(spec, seed, nil)
}

// StragglerStudySpec returns the headline straggler-sensitivity scenario.
func StragglerStudySpec() ClusterSpec { return cluster.StragglerStudySpec() }

// DefaultReps returns the CLI depth, the repetition counts noiselab runs at
// -scale 1 (the paper uses 1000/1000/200).
func DefaultReps() RepCounts { return experiment.DefaultReps() }

// TracingOverheadExec measures Table 1 under e and ctx.
func TracingOverheadExec(ctx context.Context, e Executor, p *Platform,
	workloadNames []string, reps int, seed uint64) ([]OverheadRow, error) {
	return experiment.TracingOverheadExec(ctx, e, p, workloadNames, reps, seed)
}

// PaperAccuracyCases returns the ten Table-7 trace configurations.
func PaperAccuracyCases() []AccuracyCase { return experiment.PaperAccuracyCases() }

// AggregateChange computes Table 6 from injection results.
func AggregateChange(tables []*InjectionResult) map[string][]float64 {
	return experiment.AggregateChange(tables)
}

// MeanAccuracy averages absolute accuracy across Table-7 entries.
func MeanAccuracy(entries []AccuracyEntry) float64 { return experiment.MeanAccuracy(entries) }

// Figure1Exec regenerates the schedbench motivation figure series under e
// and ctx.
func Figure1Exec(ctx context.Context, e Executor, reps int, seed uint64) ([]FigureSeries, error) {
	return experiment.Figure1Exec(ctx, e, reps, seed)
}

// Figure2Exec regenerates the Babelstream-dot motivation figure series
// under e and ctx.
func Figure2Exec(ctx context.Context, e Executor, reps int, seed uint64) ([]FigureSeries, error) {
	return experiment.Figure2Exec(ctx, e, reps, seed)
}

// CrossoverFactor finds the sweep factor where strategy b overtakes a.
func CrossoverFactor(points []IntensityPoint, a, b Strategy) float64 {
	return experiment.CrossoverFactor(points, a, b)
}

// MergeConfigs overlays two noise configurations.
func MergeConfigs(a, b *Config) (*Config, error) { return core.MergeConfigs(a, b) }

// AmplifyConfig scales a configuration's noise by factor.
func AmplifyConfig(c *Config, factor float64) (*Config, error) { return core.AmplifyConfig(c, factor) }

// Rendering helpers.
var (
	// RenderTable1 renders tracing-overhead rows.
	RenderTable1 = report.Table1
	// RenderTable2 renders baseline standard deviations.
	RenderTable2 = report.Table2
	// RenderInjectionTable renders a Tables-3/4/5 dataset.
	RenderInjectionTable = report.InjectionTable
	// RenderTable6 renders the aggregate change.
	RenderTable6 = report.Table6
	// RenderTable7 renders accuracy entries.
	RenderTable7 = report.Table7
	// RenderFigure renders a figure's box series.
	RenderFigure = report.Figure
	// RenderBoxPlot renders figure series as ASCII box plots.
	RenderBoxPlot = report.BoxPlotString
	// CheckInjectionShape verifies the paper's headline directions.
	CheckInjectionShape = report.CheckInjectionShape
	// WriteChecks renders shape-check results.
	WriteChecks = report.WriteChecks
)
