package repro_test

// Godoc examples for the public API. They print derived facts rather than
// raw simulated times so they stay stable as model constants are tuned.

import (
	"context"
	"fmt"

	"repro"
)

// ExampleRunOnce runs one traced execution on a simulated platform.
func ExampleRunOnce() {
	p, _ := repro.NewPlatform(repro.Intel9700KF)
	w, _ := p.WorkloadSpec("nbody")
	res, err := repro.RunOnce(repro.Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: repro.Rm,
		Seed: 1, Tracing: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("finished:", res.ExecTime > 0)
	fmt.Println("traced events:", len(res.Trace.Events) > 100)
	// Output:
	// finished: true
	// traced events: true
}

// ExampleBuildConfigExec runs injector stages 1+2 and inspects the
// artifacts.
func ExampleBuildConfigExec() {
	p, _ := repro.NewPlatform(repro.Intel9700KF)
	cfg, pipeline, err := repro.BuildConfigExec(context.Background(), repro.Executor{}, p, "nbody",
		repro.ConfigSource{Model: "omp", Strategy: repro.Rm, ID: 1},
		30 /* collect runs; the paper uses 1000 */, true, 42)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("worst case is the slowest run:", pipeline.Worst.ExecTime >= repro.Time(pipeline.BaselineMean*1e6))
	fmt.Println("refinement never adds noise:", pipeline.Refined.TotalNoise() <= pipeline.Worst.TotalNoise())
	fmt.Println("config valid:", cfg.Validate() == nil)
	// Output:
	// worst case is the slowest run: true
	// refinement never adds noise: true
	// config valid: true
}

// ExampleStrategy_Name shows the paper's configuration labels.
func ExampleStrategy_Name() {
	for _, s := range repro.Strategies() {
		fmt.Println(s.Name())
	}
	fmt.Println(repro.TPHK2.WithSMT().Name())
	// Output:
	// Rm
	// RmHK
	// RmHK2
	// TP
	// TPHK
	// TPHK2
	// TPHK2-SMT
}
