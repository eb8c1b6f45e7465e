package stats

// Table-driven edge-case coverage for the summary statistics the service's
// /metrics quantiles and the paper's tables depend on: empty samples,
// single samples, all-equal values, and quantile interpolation at the
// boundaries.

import (
	"math"
	"testing"
)

func nearly(a, b float64) bool { return almost(a, b, 1e-12) }

func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single q0", []float64{42}, 0, 42},
		{"single q0.5", []float64{42}, 0.5, 42},
		{"single q1", []float64{42}, 1, 42},
		{"below range clamps", []float64{1, 2}, -0.5, 1},
		{"above range clamps", []float64{1, 2}, 1.5, 2},
		{"exact q0", []float64{1, 2, 3, 4}, 0, 1},
		{"exact q1", []float64{1, 2, 3, 4}, 1, 4},
		{"pair midpoint", []float64{1, 3}, 0.5, 2},
		{"type-7 p25", []float64{1, 2, 3, 4}, 0.25, 1.75},
		{"type-7 median odd", []float64{1, 2, 3, 4, 5}, 0.5, 3},
		{"type-7 p75", []float64{1, 2, 3, 4}, 0.75, 3.25},
		{"just below 1", []float64{1, 2, 3, 4}, 0.99, 3.97},
		{"just above 0", []float64{1, 2, 3, 4}, 0.01, 1.03},
		{"all equal", []float64{7, 7, 7, 7}, 0.9, 7},
		{"grid point exact", []float64{10, 20, 30}, 0.5, 20},
	}
	for _, tc := range cases {
		if got := Quantile(tc.sorted, tc.q); !nearly(got, tc.want) {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

// TestQuantileNaNDoesNotPanic pins the fix for the discrepancy this suite
// uncovered: Quantile used to evaluate int(math.Floor(NaN)) as an index
// and panic with index out of range.
func TestQuantileNaNDoesNotPanic(t *testing.T) {
	if got := Quantile([]float64{1, 2, 3}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(_, NaN) = %v, want NaN", got)
	}
	if got := Quantile(nil, math.NaN()); got != 0 {
		t.Errorf("Quantile(nil, NaN) = %v, want 0", got)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{5},
			Summary{N: 1, Mean: 5, SD: 0, CV: 0, Min: 5, P25: 5, Median: 5, P75: 5, P95: 5, P99: 5, Max: 5}},
		{"all equal", []float64{3, 3, 3, 3, 3},
			Summary{N: 5, Mean: 3, SD: 0, CV: 0, Min: 3, P25: 3, Median: 3, P75: 3, P95: 3, P99: 3, Max: 3}},
	}
	for _, tc := range cases {
		got := Summarize(tc.xs)
		if got != tc.want {
			t.Errorf("%s: Summarize(%v) = %+v, want %+v", tc.name, tc.xs, got, tc.want)
		}
	}

	// Unsorted input must not change the order statistics.
	got := Summarize([]float64{4, 1, 3, 2})
	if got.Min != 1 || got.Max != 4 || !nearly(got.Median, 2.5) {
		t.Errorf("unsorted: %+v", got)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.SD() != 0 || w.Var() != 0 || w.CV() != 0 {
		t.Errorf("zero-value Welford not all-zero: %+v", w)
	}
	w.Add(2)
	if w.Var() != 0 || w.SD() != 0 {
		t.Errorf("single-sample variance = %v, want 0 (n-1 denominator)", w.Var())
	}
	if w.Min() != 2 || w.Max() != 2 {
		t.Errorf("single-sample extremes: min=%v max=%v", w.Min(), w.Max())
	}
	for i := 0; i < 9; i++ {
		w.Add(2)
	}
	if w.SD() != 0 || w.CV() != 0 {
		t.Errorf("all-equal SD=%v CV=%v, want 0", w.SD(), w.CV())
	}
}

func TestFiveNumEdgeCases(t *testing.T) {
	if got := FiveNumOf(nil); got != (FiveNum{}) {
		t.Errorf("FiveNumOf(nil) = %+v", got)
	}
	got := FiveNumOf([]float64{9})
	want := FiveNum{Min: 9, Q1: 9, Median: 9, Q3: 9, Max: 9}
	if got != want {
		t.Errorf("single: %+v", got)
	}
	if got.IQR() != 0 {
		t.Errorf("single IQR = %v", got.IQR())
	}
}

func TestBootstrapAndOutliersEdgeCases(t *testing.T) {
	if lo, hi := BootstrapCI(nil, 0.95, 100, 1); lo != 0 || hi != 0 {
		t.Errorf("BootstrapCI(empty) = %v,%v", lo, hi)
	}
	if lo, hi := BootstrapCI([]float64{1, 2}, 0.95, 0, 1); lo != 0 || hi != 0 {
		t.Errorf("BootstrapCI(iters=0) = %v,%v", lo, hi)
	}
	// All-equal sample: the CI collapses to the point.
	lo, hi := BootstrapCI([]float64{4, 4, 4, 4}, 0.95, 50, 7)
	if lo != 4 || hi != 4 {
		t.Errorf("BootstrapCI(all equal) = %v,%v, want 4,4", lo, hi)
	}
	if n := UpperOutlierCount([]float64{5, 5, 5, 5}, 1.5); n != 0 {
		t.Errorf("UpperOutlierCount(all equal) = %d", n)
	}
}

func TestRelChangeEdgeCases(t *testing.T) {
	if got := RelChange(0, 5); got != 0 {
		t.Errorf("RelChange(0, 5) = %v, want 0 (guarded)", got)
	}
	if got := RelChange(10, 15); !nearly(got, 50) {
		t.Errorf("RelChange(10, 15) = %v, want 50", got)
	}
	if got := RelChange(10, 5); !nearly(got, -50) {
		t.Errorf("RelChange(10, 5) = %v, want -50", got)
	}
}
