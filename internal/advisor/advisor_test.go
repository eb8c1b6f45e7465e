package advisor

import (
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/platform"
)

func tinyAdvisor(t *testing.T, workload string, worstWeight float64) Advisor {
	t.Helper()
	return Advisor{
		Platform:  platform.MustNew(machine.TinyTest),
		Workload:  workload,
		Model:     "omp",
		Reps:      experiment.RepCounts{Collect: 10, Baseline: 3, Inject: 3},
		Seed:      1,
		Objective: Objective{WorstWeight: worstWeight},
	}
}

func TestObjectiveValidate(t *testing.T) {
	if (Objective{WorstWeight: -0.1}).Validate() == nil {
		t.Fatal("negative weight should fail")
	}
	if (Objective{WorstWeight: 1.1}).Validate() == nil {
		t.Fatal("weight > 1 should fail")
	}
	if (Objective{WorstWeight: 0.5}).Validate() != nil {
		t.Fatal("valid weight rejected")
	}
}

func TestRecommendStructure(t *testing.T) {
	rec, err := tinyAdvisor(t, "nbody", 0.5).RecommendContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Table) != 6 {
		t.Fatalf("assessments = %d, want 6", len(rec.Table))
	}
	for i := 1; i < len(rec.Table); i++ {
		if rec.Table[i].Score < rec.Table[i-1].Score {
			t.Fatal("table not sorted by score")
		}
	}
	if rec.Best.Strategy != rec.Table[0].Strategy {
		t.Fatal("best must be the top-scored strategy")
	}
	if len(rec.Rationale) == 0 {
		t.Fatal("missing rationale")
	}
	for _, as := range rec.Table {
		if as.BaselineSec <= 0 || as.InjectedSec <= 0 {
			t.Fatalf("empty assessment: %+v", as)
		}
	}
}

func TestRecommendAverageObjectivePrefersAllCores(t *testing.T) {
	// With worst-case weight 0, the compute-bound workload should not
	// recommend housekeeping: the baseline penalty dominates.
	rec, err := tinyAdvisor(t, "nbody", 0).RecommendContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Strategy.HKFrac > 0 {
		t.Fatalf("average objective on compute-bound workload chose %s", rec.Best.Strategy.Name())
	}
	if rec.Character != ComputeBound {
		t.Fatalf("nbody classified as %v", rec.Character)
	}
}

func TestClassifierMemoryBound(t *testing.T) {
	// Babelstream saturates bandwidth: losing one core barely hurts.
	rec, err := tinyAdvisor(t, "babelstream", 0.5).RecommendContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Character == ComputeBound {
		t.Fatalf("babelstream classified as compute-bound")
	}
}

func TestRecommendRejectsBadObjective(t *testing.T) {
	a := tinyAdvisor(t, "nbody", 0)
	a.Objective.WorstWeight = 2
	if _, err := a.RecommendContext(context.Background()); err == nil {
		t.Fatal("invalid objective should error")
	}
}

func TestCharacterString(t *testing.T) {
	if ComputeBound.String() != "compute-bound" || MemoryBound.String() != "memory-bound" || Mixed.String() != "mixed" {
		t.Fatal("character labels")
	}
}

func TestDefaultModel(t *testing.T) {
	a := tinyAdvisor(t, "nbody", 0.5)
	a.Model = ""
	rec, err := a.RecommendContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Model != "omp" {
		t.Fatalf("default model = %q", rec.Model)
	}
	_ = mitigate.Columns
}
