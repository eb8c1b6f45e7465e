package experiment

import (
	"context"
	"fmt"

	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/stats"
)

// RunlevelRow compares one configuration's variability at runlevel 5
// (desktop, GUI) and runlevel 3 (no GUI), the §5.1 verification re-run.
type RunlevelRow struct {
	Workload string
	Model    string
	Strategy mitigate.Strategy
	// RL5 and RL3 summarize execution times (ms) with and without GUI
	// noise.
	RL5 stats.Summary
	RL3 stats.Summary
}

// SDReductionPct is how much runlevel 3 reduced the standard deviation.
func (r RunlevelRow) SDReductionPct() float64 {
	if r.RL5.SD == 0 {
		return 0
	}
	return (r.RL5.SD - r.RL3.SD) / r.RL5.SD * 100
}

// RunlevelStudy reproduces the paper's §5.1 check: re-running baselines at
// Linux runlevel 3 (GUI disabled) "generally reduced performance
// variability, [but] overall trends remain unchanged".
type RunlevelStudy struct {
	Platform   *platform.Platform
	Workloads  []string
	Model      string
	Strategies []mitigate.Strategy
	Reps       int
	Seed       uint64
	// Exec is the execution layer; the zero value runs with default
	// parallelism.
	Exec Executor
}

// RunContext measures each (workload, strategy) at both runlevels under
// ctx.
func (st RunlevelStudy) RunContext(ctx context.Context) ([]RunlevelRow, error) {
	st.Exec = st.Exec.withWorlds()
	if st.Model == "" {
		st.Model = "omp"
	}
	if len(st.Strategies) == 0 {
		st.Strategies = []mitigate.Strategy{mitigate.Rm}
	}
	var rows []RunlevelRow
	prog := st.Exec.cells(2 * len(st.Workloads) * len(st.Strategies))
	for _, wname := range st.Workloads {
		w, err := st.Platform.WorkloadSpec(wname)
		if err != nil {
			return nil, err
		}
		for _, strat := range st.Strategies {
			spec := Spec{
				Platform: st.Platform, Workload: w, Model: st.Model,
				Strategy: strat, Tracing: true,
				Seed: SeedFor(st.Seed, "runlevel", wname, strat.Name()),
			}
			rl5, err := st.Exec.seriesEach(ctx, spec, st.Reps, nil)
			if err != nil {
				return nil, fmt.Errorf("runlevel5 %s/%s: %w", wname, strat.Name(), err)
			}
			prog.finish("runlevel5 " + wname + " " + strat.Name())
			spec.Runlevel3 = true
			rl3, err := st.Exec.seriesEach(ctx, spec, st.Reps, nil)
			if err != nil {
				return nil, fmt.Errorf("runlevel3 %s/%s: %w", wname, strat.Name(), err)
			}
			prog.finish("runlevel3 " + wname + " " + strat.Name())
			rows = append(rows, RunlevelRow{
				Workload: wname,
				Model:    st.Model,
				Strategy: strat,
				RL5:      stats.SummarizeTimes(rl5),
				RL3:      stats.SummarizeTimes(rl3),
			})
		}
	}
	return rows, nil
}
