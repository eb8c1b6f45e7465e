package experiment

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/platform"
)

func TestIntensitySweep(t *testing.T) {
	p := platform.MustNew(machine.TinyTest)
	points, err := IntensitySweep{
		Platform:   p,
		Workload:   "nbody",
		Strategies: []mitigate.Strategy{mitigate.Rm, mitigate.RmHK},
		Factors:    []float64{1, 8},
		Reps:       RepCounts{Collect: 12, Baseline: 3, Inject: 3},
		Seed:       9,
	}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	// Impact should grow with the amplification factor for Rm.
	var rm1, rm8 float64
	for _, pt := range points {
		if pt.Strategy == mitigate.Rm {
			switch pt.Factor {
			case 1:
				rm1 = pt.MeanSec
			case 8:
				rm8 = pt.MeanSec
			}
		}
		if pt.MeanSec <= 0 {
			t.Fatalf("empty point: %+v", pt)
		}
	}
	if rm8 <= rm1 {
		t.Fatalf("amplified noise should hurt more: x1=%v x8=%v", rm1, rm8)
	}
}

func TestIntensitySweepValidation(t *testing.T) {
	p := platform.MustNew(machine.TinyTest)
	if _, err := (IntensitySweep{Platform: p, Workload: "nbody"}).RunContext(context.Background()); err == nil {
		t.Fatal("sweep without factors/strategies should error")
	}
}

func TestCrossoverFactor(t *testing.T) {
	pts := []IntensityPoint{
		{Factor: 1, Strategy: mitigate.Rm, MeanSec: 1.0},
		{Factor: 1, Strategy: mitigate.RmHK, MeanSec: 1.1},
		{Factor: 2, Strategy: mitigate.Rm, MeanSec: 1.3},
		{Factor: 2, Strategy: mitigate.RmHK, MeanSec: 1.2},
	}
	if f := CrossoverFactor(pts, mitigate.Rm, mitigate.RmHK); f != 2 {
		t.Fatalf("crossover = %v, want 2", f)
	}
	noCross := pts[:2]
	if f := CrossoverFactor(noCross, mitigate.Rm, mitigate.RmHK); f != 0 {
		t.Fatalf("no crossover expected, got %v", f)
	}
}

func TestRunlevelStudy(t *testing.T) {
	p := platform.MustNew(machine.TinyTest)
	rows, err := RunlevelStudy{
		Platform:  p,
		Workloads: []string{"nbody"},
		Reps:      4,
		Seed:      3,
	}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.RL5.N != 4 || r.RL3.N != 4 || r.RL5.Mean <= 0 || r.RL3.Mean <= 0 {
		t.Fatalf("row: %+v", r)
	}
	// SDReductionPct must be finite and defined.
	_ = r.SDReductionPct()
	if (RunlevelRow{}).SDReductionPct() != 0 {
		t.Fatal("zero row reduction should be 0")
	}
}
