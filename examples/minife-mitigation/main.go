// minife-mitigation sweeps housekeeping fractions for the MiniFE
// mini-application under worst-case noise injection, illustrating the
// paper's recommendation engine: how many cores to leave for the OS depends
// on whether you optimize average or worst-case behaviour.
//
// Run: go run ./examples/minife-mitigation
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/mitigate"
	"repro/internal/stats"
)

func main() {
	const (
		seed    = 23
		collect = 150
		reps    = 12
	)
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		log.Fatal(err)
	}
	w, err := p.WorkloadSpec("minife")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	exec := repro.Executor{} // parallel reps, deterministic results
	cfg, pr, err := repro.BuildConfigExec(ctx, exec, p, "minife",
		repro.ConfigSource{Model: "omp", Strategy: repro.Rm, ID: 1},
		collect, true, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MiniFE on %s; worst case %.3f s; %d injected events\n\n",
		p.Name, pr.Worst.ExecTime.Seconds(), cfg.NumEvents())

	fmt.Printf("%-10s %8s %12s %12s %10s %10s\n",
		"strategy", "cores", "baseline(s)", "injected(s)", "base-sd", "inj-sd")
	type result struct {
		name     string
		injected float64
		baseline float64
	}
	var best *result
	for _, frac := range []float64{0, 0.125, 0.25, 0.375} {
		strat := mitigate.Strategy{HKFrac: frac}
		plan, err := mitigate.Apply(strat, p.Topo)
		if err != nil {
			log.Fatal(err)
		}
		bt, err := exec.SeriesTimes(ctx, repro.Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: strat,
			Seed: seed + 100, Tracing: true,
		}, reps)
		if err != nil {
			log.Fatal(err)
		}
		it, err := exec.SeriesTimes(ctx, repro.Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: strat,
			Seed: seed + 200, Inject: cfg,
		}, reps)
		if err != nil {
			log.Fatal(err)
		}
		b := stats.SummarizeTimes(bt)
		i := stats.SummarizeTimes(it)
		fmt.Printf("%-10s %8d %12.3f %12.3f %9.1fms %9.1fms\n",
			strat.Name(), plan.Threads, b.Mean/1000, i.Mean/1000, b.SD, i.SD)
		r := result{name: strat.Name(), injected: i.Mean / 1000, baseline: b.Mean / 1000}
		if best == nil || r.injected < best.injected {
			rr := r
			best = &rr
		}
	}
	fmt.Printf("\nbest worst-case configuration: %s (%.3f s under injection)\n", best.name, best.injected)
	fmt.Println("paper's recommendation: in high-noise environments housekeeping cores")
	fmt.Println("consistently improve performance; balance against the baseline cost.")
}
