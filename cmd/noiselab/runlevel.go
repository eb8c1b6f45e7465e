package main

import (
	"context"
	"fmt"
	"strings"

	"repro"
	"repro/internal/experiment"
	"repro/internal/mitigate"
)

// cmdRunlevel reproduces the paper's §5.1 verification: baseline
// variability at runlevel 5 (desktop, GUI) vs runlevel 3 (GUI disabled).
func cmdRunlevel(args []string) error {
	c := newCommon("runlevel")
	reps := c.fs.Int("reps", 30, "repetitions per runlevel")
	workloadsFlag := c.fs.String("workloads", "nbody,babelstream,minife", "comma-separated workloads")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.rejectDeadline(); err != nil {
		return err
	}
	p, err := repro.NewPlatform(*c.platform)
	if err != nil {
		return err
	}
	strat, err := mitigate.Parse(*c.strategy)
	if err != nil {
		return err
	}
	rows, err := (experiment.RunlevelStudy{
		Platform:   p,
		Workloads:  strings.Split(*workloadsFlag, ","),
		Model:      *c.model,
		Strategies: []mitigate.Strategy{strat},
		Reps:       *reps,
		Seed:       *c.seed,
		Exec:       newExec(),
	}).RunContext(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("runlevel 5 (GUI) vs runlevel 3, %s %s %s, %d reps:\n",
		p.Name, *c.model, strat.Name(), *reps)
	fmt.Printf("%-14s %12s %10s %12s %10s %12s\n",
		"workload", "rl5 mean", "rl5 sd", "rl3 mean", "rl3 sd", "sd change")
	for _, r := range rows {
		fmt.Printf("%-14s %10.1fms %8.2fms %10.1fms %8.2fms %+10.1f%%\n",
			r.Workload, r.RL5.Mean, r.RL5.SD, r.RL3.Mean, r.RL3.SD, -r.SDReductionPct())
	}
	fmt.Println("\npaper (§5.1): disabling the GUI generally reduced variability;")
	fmt.Println("overall trends remain unchanged.")
	return nil
}
