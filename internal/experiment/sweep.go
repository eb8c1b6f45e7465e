package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/stats"
)

// IntensityPoint is one (amplification, strategy) measurement of an
// intensity sweep.
type IntensityPoint struct {
	// Factor is the worst-case amplification (1.0 = the captured config).
	Factor float64
	// Strategy is the mitigation under test.
	Strategy mitigate.Strategy
	// MeanSec is the mean injected execution time.
	MeanSec float64
	// ChangePct is the increase vs the strategy's own baseline.
	ChangePct float64
}

// IntensitySweep quantifies the abstract's claim that "mitigation
// effectiveness varies with ... noise intensity": it captures one
// worst-case config, then replays amplified variants of it across
// mitigation strategies. At low intensity housekeeping's baseline cost
// dominates; as intensity grows, housekeeping wins.
type IntensitySweep struct {
	Platform   *platform.Platform
	Workload   string
	Model      string
	Strategies []mitigate.Strategy
	// Factors are the amplification levels (e.g. 0.5, 1, 2, 4).
	Factors []float64
	Reps    RepCounts
	Seed    uint64
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec Executor
}

// RunContext executes the sweep under ctx. Points are ordered
// factor-major, strategy-minor.
func (sw IntensitySweep) RunContext(ctx context.Context) ([]IntensityPoint, error) {
	if len(sw.Factors) == 0 || len(sw.Strategies) == 0 {
		return nil, fmt.Errorf("experiment: intensity sweep needs factors and strategies")
	}
	if sw.Model == "" {
		sw.Model = "omp"
	}
	// One pool for the whole sweep: the config hunt, the per-strategy
	// baselines, and every (factor, strategy) point share warm worlds.
	sw.Exec = sw.Exec.withWorlds()
	w, err := sw.Platform.WorkloadSpec(sw.Workload)
	if err != nil {
		return nil, err
	}
	prog := sw.Exec.cells(1 + len(sw.Strategies) + len(sw.Factors)*len(sw.Strategies))
	cfg, _, err := huntConfig(ctx, sw.Exec, sw.Platform, sw.Workload,
		ConfigSource{Model: sw.Model, Strategy: mitigate.Rm, ID: 1},
		sw.Reps.Collect, true, sw.Seed, false)
	if err != nil {
		return nil, err
	}
	prog.finish("sweep config " + sw.Workload)

	// Per-strategy baselines.
	baselines := map[string]float64{}
	for _, strat := range sw.Strategies {
		times, err := sw.Exec.SeriesTimes(ctx, Spec{
			Platform: sw.Platform, Workload: w, Model: sw.Model, Strategy: strat,
			Seed: SeedFor(sw.Seed, "sweepbase", strat.Name()), Tracing: true,
		}, sw.Reps.Baseline)
		if err != nil {
			return nil, err
		}
		baselines[strat.Name()] = stats.SummarizeTimes(times).Mean
		prog.finish("sweep baseline " + strat.Name())
	}

	var out []IntensityPoint
	for _, f := range sw.Factors {
		amp, err := core.AmplifyConfig(cfg, f)
		if err != nil {
			return nil, err
		}
		for _, strat := range sw.Strategies {
			times, err := sw.Exec.SeriesTimes(ctx, Spec{
				Platform: sw.Platform, Workload: w, Model: sw.Model, Strategy: strat,
				Seed:   SeedFor(sw.Seed, "sweepinj", strat.Name(), fmt.Sprint(f)),
				Inject: amp,
			}, sw.Reps.Inject)
			if err != nil {
				return nil, err
			}
			prog.finish(fmt.Sprintf("sweep inject %s x%.2g", strat.Name(), f))
			mean := stats.SummarizeTimes(times).Mean
			out = append(out, IntensityPoint{
				Factor:    f,
				Strategy:  strat,
				MeanSec:   mean / 1000,
				ChangePct: stats.RelChange(baselines[strat.Name()], mean),
			})
		}
	}
	return out, nil
}

// CrossoverFactor returns the smallest swept factor at which strategy b's
// mean injected time beats strategy a's (the paper's average-vs-worst-case
// trade: e.g. when RmHK overtakes Rm), or 0 if it never does.
func CrossoverFactor(points []IntensityPoint, a, b mitigate.Strategy) float64 {
	byFactor := map[float64]map[string]float64{}
	for _, p := range points {
		m, ok := byFactor[p.Factor]
		if !ok {
			m = map[string]float64{}
			byFactor[p.Factor] = m
		}
		m[p.Strategy.Name()] = p.MeanSec
	}
	var factors []float64
	for f := range byFactor {
		factors = append(factors, f)
	}
	// Insertion sort: tiny slices.
	for i := 1; i < len(factors); i++ {
		for j := i; j > 0 && factors[j] < factors[j-1]; j-- {
			factors[j], factors[j-1] = factors[j-1], factors[j]
		}
	}
	for _, f := range factors {
		m := byFactor[f]
		va, oka := m[a.Name()]
		vb, okb := m[b.Name()]
		if oka && okb && vb < va {
			return f
		}
	}
	return 0
}
