// nbody-compare contrasts OpenMP and SYCL resilience to injected noise on
// the compute-bound N-body workload (the paper's §5.2 headline): OpenMP is
// faster in raw time, SYCL degrades less under the same worst-case noise.
//
// Run: go run ./examples/nbody-compare
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/stats"
)

func main() {
	const (
		seed    = 11
		collect = 120
		reps    = 15
	)
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		log.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		log.Fatal(err)
	}

	// Deterministic parallel repetitions over GOMAXPROCS workers.
	ctx := context.Background()
	exec := repro.Executor{}

	cfg, pr, err := repro.BuildConfigExec(ctx, exec, p, "nbody",
		repro.ConfigSource{Model: "omp", Strategy: repro.Rm, ID: 1},
		collect, true, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst-case trace: %.3f s; injecting %.1f ms of delta noise\n\n",
		pr.Worst.ExecTime.Seconds(), float64(cfg.TotalNoise())/1e6)

	fmt.Printf("%-5s %-6s %12s %12s %9s\n", "model", "strat", "baseline(s)", "injected(s)", "change")
	for _, model := range []string{"omp", "sycl"} {
		for _, strat := range repro.Strategies() {
			bt, _, err := exec.Series(ctx, repro.Spec{
				Platform: p, Workload: w, Model: model, Strategy: strat,
				Seed: seed + 100, Tracing: true,
			}, reps)
			if err != nil {
				log.Fatal(err)
			}
			it, _, err := exec.Series(ctx, repro.Spec{
				Platform: p, Workload: w, Model: model, Strategy: strat,
				Seed: seed + 200, Inject: cfg,
			}, reps)
			if err != nil {
				log.Fatal(err)
			}
			b := stats.SummarizeTimes(bt).Mean / 1000
			i := stats.SummarizeTimes(it).Mean / 1000
			fmt.Printf("%-5s %-6s %12.3f %12.3f %+8.1f%%\n",
				model, strat.Name(), b, i, (i-b)/b*100)
		}
		fmt.Println()
	}
	fmt.Println("expected shape (paper): OMP lower raw time; SYCL smaller % change;")
	fmt.Println("housekeeping (RmHK/RmHK2) suppresses the injected worst case.")
}
