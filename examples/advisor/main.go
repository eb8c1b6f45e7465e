// advisor demonstrates the paper's §6 guidance as an executable decision
// aid: it benchmarks every mitigation strategy at baseline and under
// replayed worst-case noise, classifies the workload, recommends a
// configuration for two different objectives, and sweeps amplified noise
// intensities to locate where housekeeping pays off.
//
// Run: go run ./examples/advisor
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/advisor"
	"repro/internal/experiment"
)

func recommend(p *repro.Platform, workload string, worstWeight float64) {
	rec, err := advisor.Advisor{
		Platform:  p,
		Workload:  workload,
		Model:     "omp",
		Reps:      experiment.RepCounts{Collect: 80, Baseline: 8, Inject: 8},
		Seed:      5,
		Objective: advisor.Objective{WorstWeight: worstWeight},
	}.RecommendContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objective weight on worst case: %.1f -> recommend %s (%s workload)\n",
		worstWeight, rec.Best.Strategy.Name(), rec.Character)
	for _, r := range rec.Rationale {
		fmt.Printf("    - %s\n", r)
	}
}

func main() {
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== advisor: nbody on intel-9700kf ==")
	recommend(p, "nbody", 0.0) // average-time objective
	recommend(p, "nbody", 1.0) // worst-case objective

	fmt.Println("\n== intensity sweep: where does housekeeping pay off? ==")
	points, err := (repro.IntensitySweep{
		Platform:   p,
		Workload:   "nbody",
		Strategies: []repro.Strategy{repro.Rm, repro.RmHK},
		Factors:    []float64{0.5, 1, 2, 4},
		Reps:       repro.RepCounts{Collect: 80, Baseline: 6, Inject: 6},
		Seed:       5,
	}).RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range points {
		fmt.Printf("  x%-4.1f %-6s injected %.3fs (%+.1f%% vs its baseline)\n",
			pt.Factor, pt.Strategy.Name(), pt.MeanSec, pt.ChangePct)
	}
	if f := repro.CrossoverFactor(points, repro.Rm, repro.RmHK); f > 0 {
		fmt.Printf("\nhousekeeping overtakes all-cores at ~%.1fx the captured worst case\n", f)
	} else {
		fmt.Println("\nhousekeeping did not overtake in the swept range")
	}
}
