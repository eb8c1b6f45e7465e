package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Pipeline bundles the full three-stage injector flow of §4 against a
// workload configuration.
type Pipeline struct {
	// Spec is the traced execution configuration (Tracing is forced on
	// during collection).
	Spec Spec
	// CollectRuns is the number of traced executions (the paper uses
	// 1000; scaled down by callers for CI).
	CollectRuns int
	// Improved selects the improved merge for config generation.
	Improved bool
	// Exec is the execution layer for the collection stage; the zero
	// value runs with default parallelism.
	Exec Executor
}

// PipelineResult carries every artifact of a pipeline run.
type PipelineResult struct {
	// Traces are all collected traces.
	Traces []*trace.Trace
	// Profile is the average inherent-noise profile.
	Profile *trace.Profile
	// Worst is the worst-case trace; WorstIndex its position.
	Worst      *trace.Trace
	WorstIndex int
	// Refined is the worst case minus the average noise.
	Refined *trace.Trace
	// Config is the generated injection configuration.
	Config *core.Config
	// BaselineMean is the mean execution time across collection runs.
	BaselineMean float64 // milliseconds
	// UpperOutliers counts collection runs above the upper Tukey fence —
	// the "significant outliers" the paper picks worst cases from.
	UpperOutliers int
}

// RunContext executes collection, averaging, worst-case selection,
// refinement and config generation under ctx; the collection stage fans its
// traced runs over the executor's worker pool.
func (p Pipeline) RunContext(ctx context.Context) (*PipelineResult, error) {
	if p.CollectRuns <= 1 {
		return nil, fmt.Errorf("experiment: pipeline needs at least 2 collection runs")
	}
	p.Exec = p.Exec.withWorlds()
	spec := p.Spec
	spec.Tracing = true
	spec.Inject = nil
	_, traces, err := p.Exec.Series(ctx, spec, p.CollectRuns)
	if err != nil {
		return nil, err
	}
	profile := trace.BuildProfile(traces)
	worst, wi, err := trace.WorstCase(traces)
	if err != nil {
		return nil, err
	}
	refined := core.Refine(worst, profile)
	cfg := core.Generate(refined, p.Improved)
	execMs := make([]float64, len(traces))
	for i, tr := range traces {
		execMs[i] = tr.ExecTime.Millis()
	}
	return &PipelineResult{
		Traces:        traces,
		Profile:       profile,
		Worst:         worst,
		WorstIndex:    wi,
		Refined:       refined,
		Config:        cfg,
		BaselineMean:  stats.Summarize(execMs).Mean,
		UpperOutliers: stats.UpperOutlierCount(execMs, 1.5),
	}, nil
}

// Accuracy is the paper's §5.2 replication-accuracy metric:
// |avgExec/anomalyExec - 1|, where avgExec is the mean execution time under
// injection and anomalyExec the worst-case trace's execution time. The
// signed value is also returned (negative = replay faster than anomaly),
// matching the "(-)" annotations in Table 7.
func Accuracy(avgExec, anomalyExec float64) (abs, signed float64) {
	if anomalyExec == 0 {
		return 0, 0
	}
	signed = avgExec/anomalyExec - 1
	abs = signed
	if abs < 0 {
		abs = -abs
	}
	return abs, signed
}
