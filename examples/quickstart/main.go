// Quickstart: the full noise-injector pipeline on one workload.
//
// It (1) measures a baseline for Babelstream/OpenMP on the simulated Intel
// i7-9700KF, (2) collects traced executions and generates a worst-case
// noise configuration (delta-refined, improved merge), and (3) replays the
// configuration while the workload runs, reporting the replication
// accuracy and the impact of a housekeeping core.
//
// Repetitions fan out over repro.Executor's worker pool — results are
// bit-identical to sequential runs at any worker count. Set
// Executor.Parallelism to 1 to force sequential execution.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/stats"
)

func mean(ts []repro.Time) float64 {
	var sum float64
	for _, t := range ts {
		sum += t.Seconds()
	}
	return sum / float64(len(ts))
}

func main() {
	const (
		seed     = 7
		collect  = 120 // the paper collects 1000 traced runs
		reps     = 20  // the paper measures 200 injected runs
		workload = "babelstream"
	)
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		log.Fatal(err)
	}
	w, err := p.WorkloadSpec(workload)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== %s / %s / omp on %s ==\n", workload, "Rm", p.Name)

	// All repetitions below run through one Executor: parallel across
	// GOMAXPROCS workers, deterministic regardless.
	ctx := context.Background()
	exec := repro.Executor{}

	// Stage 0: baseline variability.
	baseTimes, _, err := exec.Series(ctx, repro.Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: repro.Rm,
		Seed: seed, Tracing: true,
	}, reps)
	if err != nil {
		log.Fatal(err)
	}
	base := stats.SummarizeTimes(baseTimes)
	fmt.Printf("baseline: mean %.3f s, sd %.2f ms over %d runs\n",
		base.Mean/1000, base.SD, base.N)

	// Stages 1+2: collect traces, pick the worst case, subtract the
	// average inherent noise, and generate the injection config.
	cfg, pipeline, err := repro.BuildConfigExec(ctx, exec, p, workload,
		repro.ConfigSource{Model: "omp", Strategy: repro.Rm, ID: 1},
		collect, true, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d traces; worst case %.3f s (mean %.3f s)\n",
		collect, pipeline.Worst.ExecTime.Seconds(), pipeline.BaselineMean/1000)
	fmt.Printf("config: %d delta-noise events on %d CPUs, %.1f ms total noise\n",
		cfg.NumEvents(), len(cfg.CPUs), float64(cfg.TotalNoise())/1e6)

	// Stage 3: replay the worst case while the workload runs.
	for _, strat := range []repro.Strategy{repro.Rm, repro.RmHK, repro.RmHK2} {
		injTimes, _, err := exec.Series(ctx, repro.Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: strat,
			Seed: seed + 1000, Inject: cfg,
		}, reps)
		if err != nil {
			log.Fatal(err)
		}
		bt, _, err := exec.Series(ctx, repro.Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: strat,
			Seed: seed + 2000, Tracing: true,
		}, reps)
		if err != nil {
			log.Fatal(err)
		}
		inj, b := mean(injTimes), mean(bt)
		fmt.Printf("%-6s baseline %.3f s -> injected %.3f s (%+.1f%%)\n",
			strat.Name(), b, inj, (inj-b)/b*100)
	}

	// Replication accuracy (Table-7 metric).
	injTimes, _, err := exec.Series(ctx, repro.Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: repro.Rm,
		Seed: seed + 3000, Inject: cfg,
	}, reps)
	if err != nil {
		log.Fatal(err)
	}
	avg := mean(injTimes)
	anomaly := pipeline.Worst.ExecTime.Seconds()
	acc := (avg/anomaly - 1) * 100
	fmt.Printf("replication: injected mean %.3f s vs anomaly %.3f s -> accuracy %.2f%%\n",
		avg, anomaly, acc)
}
