package paper

import (
	"context"
	"testing"

	"repro/internal/experiment"
)

// TestTable6ReusesStudies: once a plan holds the Tables 3-5 studies, Table 6
// aggregates them without running a study cell.
func TestTable6ReusesStudies(t *testing.T) {
	cells := 0
	p := &Plan{Exec: experiment.Executor{OnCell: func(int, int, string) { cells++ }}}
	p.studies = map[string]*experiment.InjectionResult{}
	for _, w := range Workloads {
		p.studies[w] = &experiment.InjectionResult{Workload: w}
	}
	a, err := p.Build(context.Background(), "table6")
	if err != nil {
		t.Fatal(err)
	}
	if cells != 0 {
		t.Fatalf("table6 ran %d study cells over cached studies", cells)
	}
	if a.Table == nil || len(a.Checks) == 0 || len(a.Metrics) != 2 {
		t.Fatalf("table6 artifact incomplete: %+v", a)
	}
}
