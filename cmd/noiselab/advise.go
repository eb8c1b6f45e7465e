package main

import (
	"context"
	"fmt"

	"repro/internal/advisor"
	"repro/internal/experiment"
)

// cmdAdvise runs the §6 recommendation engine: it benchmarks every
// mitigation strategy at baseline and under replayed worst-case noise and
// recommends a configuration for the requested average/worst-case balance.
func cmdAdvise(args []string) error {
	c := newCommon("advise")
	worstWeight := c.fs.Float64("worst-weight", 0.5,
		"objective weight on worst-case (injected) time: 0 = average only, 1 = worst case only")
	collect := c.fs.Int("collect", 120, "traced executions for worst-case hunting")
	reps := c.fs.Int("reps", 12, "baseline/injection repetitions per strategy")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.rejectDeadline(); err != nil {
		return err
	}
	p, _, _, err := c.resolve()
	if err != nil {
		return err
	}
	rec, err := advisor.Advisor{
		Platform: p,
		Workload: *c.workload,
		Model:    *c.model,
		Reps: experiment.RepCounts{
			Collect: *collect, Baseline: *reps, Inject: *reps,
		},
		Seed:      *c.seed,
		Objective: advisor.Objective{WorstWeight: *worstWeight},
		Exec:      newExec(),
	}.RecommendContext(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("advisor: %s / %s on %s (worst-case weight %.2f)\n\n",
		rec.Workload, rec.Model, rec.Platform, *worstWeight)
	fmt.Printf("%-8s %12s %10s %12s %9s %10s\n",
		"strategy", "baseline(s)", "sd(ms)", "injected(s)", "change", "score")
	for _, as := range rec.Table {
		fmt.Printf("%-8s %12.3f %10.2f %12.3f %+8.1f%% %10.3f\n",
			as.Strategy.Name(), as.BaselineSec, as.BaselineSD,
			as.InjectedSec, as.ChangePct, as.Score)
	}
	fmt.Printf("\nrecommended: %s\n", rec.Best.Strategy.Name())
	for _, r := range rec.Rationale {
		fmt.Printf("  - %s\n", r)
	}
	return nil
}
