package advisor

// Table tests for the advisor paths the end-to-end recommendation tests do
// not reach: every rationale branch, the classifier's degenerate inputs,
// and the shared-bootstrap CI bounds on assessments.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mitigate"
)

func TestRationaleBranches(t *testing.T) {
	rec := func(char Character, best mitigate.Strategy) *Recommendation {
		return &Recommendation{Character: char, Best: Assessment{Strategy: best}}
	}
	cases := map[string]struct {
		rec  *Recommendation
		obj  Objective
		want []string // substrings that must appear
		not  []string // substrings that must not
	}{
		"worst-case objective picks housekeeping": {
			rec:  rec(Mixed, mitigate.RmHK),
			obj:  Objective{WorstWeight: 0.5},
			want: []string{"recommendation 1", "roaming threads", "recommendation 4"},
		},
		"memory-bound housekeeping under average noise": {
			rec:  rec(MemoryBound, mitigate.RmHK),
			obj:  Objective{WorstWeight: 0.2},
			want: []string{"recommendation 2", "recommendation 4"},
			not:  []string{"recommendation 1"},
		},
		"compute-bound avoids housekeeping": {
			rec:  rec(ComputeBound, mitigate.Rm),
			obj:  Objective{WorstWeight: 0},
			want: []string{"recommendation 3", "roaming threads"},
			not:  []string{"recommendation 4"},
		},
		"pinning selected": {
			rec:  rec(ComputeBound, mitigate.TP),
			obj:  Objective{WorstWeight: 0},
			want: []string{"thread pinning selected", "recommendation 3"},
			not:  []string{"roaming threads"},
		},
		"pinned housekeeping under worst-case objective": {
			rec:  rec(MemoryBound, mitigate.TPHK2),
			obj:  Objective{WorstWeight: 1},
			want: []string{"recommendation 1", "thread pinning selected", "recommendation 4"},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			lines := rationale(tc.rec, tc.obj)
			joined := strings.Join(lines, "\n")
			if !strings.Contains(joined, "workload measured as "+tc.rec.Character.String()) {
				t.Fatalf("missing character line:\n%s", joined)
			}
			for _, want := range tc.want {
				if !strings.Contains(joined, want) {
					t.Fatalf("missing %q:\n%s", want, joined)
				}
			}
			for _, not := range tc.not {
				if strings.Contains(joined, not) {
					t.Fatalf("unexpected %q:\n%s", not, joined)
				}
			}
		})
	}
}

func TestClassifyTable(t *testing.T) {
	// Synthetic assessment tables exercise the regression classifier
	// directly: baseline seconds at HKFrac 0, 0.125, 0.25 for the roaming
	// strategies (pinned rows carry junk to prove they are ignored).
	table := func(rm, rmhk, rmhk2 float64) []Assessment {
		return []Assessment{
			{Strategy: mitigate.Rm, BaselineSec: rm},
			{Strategy: mitigate.RmHK, BaselineSec: rmhk},
			{Strategy: mitigate.RmHK2, BaselineSec: rmhk2},
			{Strategy: mitigate.TP, BaselineSec: 999},
			{Strategy: mitigate.TPHK, BaselineSec: 0.001},
		}
	}
	var a Advisor
	cases := map[string]struct {
		table []Assessment
		want  Character
	}{
		"proportional slowdown is compute-bound": {table(1.0, 1.125, 1.25), ComputeBound},
		"flat curve is memory-bound":             {table(1.0, 1.001, 1.002), MemoryBound},
		"intermediate slope is mixed":            {table(1.0, 1.06, 1.12), Mixed},
		"missing roaming rows fall back to mixed": {
			[]Assessment{{Strategy: mitigate.TP, BaselineSec: 1}}, Mixed},
		"zero baseline falls back to mixed":      {table(0, 0, 0), Mixed},
		"negative intercept falls back to mixed": {table(-1, -1.125, -1.25), Mixed},
		"single roaming row falls back to mixed": {
			[]Assessment{{Strategy: mitigate.Rm, BaselineSec: 1}}, Mixed},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if got := a.classify(tc.table); got != tc.want {
				t.Fatalf("classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAssessmentCIBounds(t *testing.T) {
	rec, err := tinyAdvisor(t, "nbody", 0.5).RecommendContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range rec.Table {
		if as.BaselineLoSec > as.BaselineSec || as.BaselineSec > as.BaselineHiSec {
			t.Fatalf("%s: baseline CI [%g, %g] does not bracket mean %g",
				as.Strategy.Name(), as.BaselineLoSec, as.BaselineHiSec, as.BaselineSec)
		}
		if as.InjectedLoSec > as.InjectedSec || as.InjectedSec > as.InjectedHiSec {
			t.Fatalf("%s: injected CI [%g, %g] does not bracket mean %g",
				as.Strategy.Name(), as.InjectedLoSec, as.InjectedHiSec, as.InjectedSec)
		}
		if as.BaselineLoSec <= 0 {
			t.Fatalf("%s: baseline CI lower bound %g not positive", as.Strategy.Name(), as.BaselineLoSec)
		}
	}
}
