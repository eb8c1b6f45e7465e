// Package advisor operationalizes the paper's §6 recommendations:
// "combining traditional benchmarking with noise injection allows testing
// under reproducible, diverse noise conditions... helps developers balance
// average and worst-case performance." Given a platform, workload, and an
// objective weighting of average vs worst-case behaviour, it benchmarks
// every mitigation strategy both at baseline and under replayed worst-case
// noise, classifies the workload (compute- vs memory-bound, measured, not
// assumed), and recommends a configuration with the paper's rationale.
package advisor

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/experiment"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Objective weights the recommendation: 0 optimizes average execution time
// only, 1 optimizes the injected worst case only. The paper's discussion
// suggests high-noise or variability-sensitive deployments should weight
// the worst case heavily.
type Objective struct {
	WorstWeight float64
}

// Validate checks the objective.
func (o Objective) Validate() error {
	if o.WorstWeight < 0 || o.WorstWeight > 1 {
		return fmt.Errorf("advisor: worst-case weight %v out of [0,1]", o.WorstWeight)
	}
	return nil
}

// Character classifies a workload's resource character.
type Character int

const (
	// ComputeBound workloads scale with core count.
	ComputeBound Character = iota
	// MemoryBound workloads saturate machine bandwidth.
	MemoryBound
	// Mixed sits in between.
	Mixed
)

func (c Character) String() string {
	switch c {
	case ComputeBound:
		return "compute-bound"
	case MemoryBound:
		return "memory-bound"
	default:
		return "mixed"
	}
}

// Assessment is one strategy's measured profile. The CI bounds come from
// the shared deterministic bootstrap (stats.MeanCI), so the advisor's
// uncertainty estimates agree with the analysis artifact's.
type Assessment struct {
	Strategy    mitigate.Strategy
	BaselineSec float64
	// BaselineLoSec/BaselineHiSec bound BaselineSec at 95% confidence.
	BaselineLoSec float64
	BaselineHiSec float64
	BaselineSD    float64 // ms
	InjectedSec   float64
	// InjectedLoSec/InjectedHiSec bound InjectedSec at 95% confidence.
	InjectedLoSec float64
	InjectedHiSec float64
	ChangePct     float64
	Score         float64 // weighted objective, lower is better
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Workload  string
	Platform  string
	Model     string
	Character Character
	Best      Assessment
	Table     []Assessment // sorted by score
	Rationale []string
}

// Advisor runs the assessment.
type Advisor struct {
	Platform  *platform.Platform
	Workload  string
	Model     string
	Reps      experiment.RepCounts
	Seed      uint64
	Objective Objective
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec experiment.Executor
}

// RecommendContext benchmarks all strategies at baseline and under
// worst-case injection under ctx and returns a recommendation.
func (a Advisor) RecommendContext(ctx context.Context) (*Recommendation, error) {
	if err := a.Objective.Validate(); err != nil {
		return nil, err
	}
	if a.Model == "" {
		a.Model = "omp"
	}
	w, err := a.Platform.WorkloadSpec(a.Workload)
	if err != nil {
		return nil, err
	}
	// Worst-case config hunted under the roaming configuration.
	cfg, _, err := experiment.BuildConfigExec(ctx, a.Exec, a.Platform, a.Workload,
		experiment.ConfigSource{Model: a.Model, Strategy: mitigate.Rm, ID: 1},
		a.Reps.Collect, true, a.Seed)
	if err != nil {
		return nil, err
	}

	var table []Assessment
	for _, strat := range mitigate.Columns() {
		baseSpec := experiment.Spec{
			Platform: a.Platform, Workload: w, Model: a.Model, Strategy: strat,
			Seed: a.Seed + 17, Tracing: true,
		}
		bt, err := a.Exec.SeriesTimes(ctx, baseSpec, a.Reps.Baseline)
		if err != nil {
			return nil, err
		}
		injSpec := baseSpec
		injSpec.Tracing = false
		injSpec.Inject = cfg
		injSpec.Seed = a.Seed + 31
		it, err := a.Exec.SeriesTimes(ctx, injSpec, a.Reps.Inject)
		if err != nil {
			return nil, err
		}
		b := stats.SummarizeTimes(bt)
		i := stats.SummarizeTimes(it)
		as := Assessment{
			Strategy:    strat,
			BaselineSec: b.Mean / 1000,
			BaselineSD:  b.SD,
			InjectedSec: i.Mean / 1000,
			ChangePct:   stats.RelChange(b.Mean, i.Mean),
		}
		_, as.BaselineLoSec, as.BaselineHiSec = meanCISec(bt)
		_, as.InjectedLoSec, as.InjectedHiSec = meanCISec(it)
		ww := a.Objective.WorstWeight
		as.Score = (1-ww)*as.BaselineSec + ww*as.InjectedSec
		table = append(table, as)
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Score < table[j].Score })

	char := a.classify(table)
	rec := &Recommendation{
		Workload:  a.Workload,
		Platform:  a.Platform.Name,
		Model:     a.Model,
		Character: char,
		Best:      table[0],
		Table:     table,
	}
	rec.Rationale = rationale(rec, a.Objective)
	return rec, nil
}

// meanCISec is the shared bootstrap CI (stats.MeanCI) over a rep series,
// in seconds.
func meanCISec(ts []sim.Time) (mean, lo, hi float64) {
	secs := make([]float64, len(ts))
	for i, t := range ts {
		secs[i] = float64(t) / 1e9
	}
	return stats.MeanCI(secs, 0.95)
}

// classify infers the workload character from the measured housekeeping
// sensitivity: it regresses baseline time against the housekeeping core
// fraction across the roaming strategies (Rm, RmHK, RmHK2) with the shared
// stats.LinearFit — the same regression helper the bottleneck analysis
// uses. Losing cores barely slows a bandwidth-saturated workload (flat
// slope) but slows a compute-bound one nearly proportionally (relative
// slope approaching 1 per fraction of cores removed).
func (a Advisor) classify(table []Assessment) Character {
	var xs, ys []float64
	for i := range table {
		if s := table[i].Strategy; !s.Pin && !s.SMT {
			xs = append(xs, s.HKFrac)
			ys = append(ys, table[i].BaselineSec)
		}
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil || fit.Intercept <= 0 {
		return Mixed
	}
	// Relative slope: fractional slowdown per fraction of cores given to
	// housekeeping. The thresholds are the old two-point rule (penalty at
	// HKFrac 0.125 below 4% / above 9%) expressed per unit fraction.
	rel := fit.Slope / fit.Intercept
	switch {
	case rel < 0.32:
		return MemoryBound
	case rel > 0.72:
		return ComputeBound
	default:
		return Mixed
	}
}

// rationale renders the paper's §6 recommendation logic against the
// measured data.
func rationale(rec *Recommendation, obj Objective) []string {
	var out []string
	out = append(out, fmt.Sprintf("workload measured as %s (housekeeping baseline penalty)", rec.Character))
	best := rec.Best.Strategy
	switch {
	case best.HKFrac > 0 && obj.WorstWeight >= 0.5:
		out = append(out, "high-noise objective: housekeeping cores consistently improved worst-case performance (paper recommendation 1)")
	case rec.Character == MemoryBound && best.HKFrac > 0:
		out = append(out, "memory-bound: housekeeping cores yield gains even under average noise (paper recommendation 2)")
	case rec.Character == ComputeBound && best.HKFrac == 0:
		out = append(out, "compute-bound under average noise: avoid housekeeping, every core counts (paper recommendation 3)")
	}
	if best.Pin {
		out = append(out, "thread pinning selected: migration overhead outweighed flexibility in this configuration")
	} else {
		out = append(out, "roaming threads selected: on small desktop parts pinning showed no mitigation benefit (paper §5.1)")
	}
	if best.HKFrac > 0 {
		out = append(out, "leaving cores unallocated reduced variability (paper recommendation 4)")
	}
	return out
}
