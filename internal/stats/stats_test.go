package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if !almost(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
	if !almost(w.CV(), w.SD()/5, 1e-12) {
		t.Fatalf("CV = %v", w.CV())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.SD() != 0 || w.Mean() != 0 || w.CV() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
	w.Add(3)
	if w.Var() != 0 || w.Mean() != 3 {
		t.Fatal("single observation: var 0, mean x")
	}
}

// Property: Welford matches the two-pass formula.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			w.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		twoPass := ss / float64(len(xs)-1)
		return almost(w.Var(), twoPass, 1e-6*(1+twoPass))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almost(s.Median, 3, 1e-12) || !almost(s.Mean, 3, 1e-12) {
		t.Fatalf("summary: %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize should be zero")
	}
}

func TestSummarizeTimesMillis(t *testing.T) {
	s := SummarizeTimes([]sim.Time{sim.Millisecond, 3 * sim.Millisecond})
	if !almost(s.Mean, 2, 1e-9) {
		t.Fatalf("mean should be in ms: %v", s.Mean)
	}
}

func TestFiveNum(t *testing.T) {
	f := FiveNumOf([]float64{7, 1, 3, 5, 9})
	if f.Min != 1 || f.Max != 9 || !almost(f.Median, 5, 1e-12) {
		t.Fatalf("five num: %+v", f)
	}
	if !almost(f.IQR(), f.Q3-f.Q1, 1e-12) {
		t.Fatal("IQR mismatch")
	}
	if (FiveNum{}) != FiveNumOf(nil) {
		t.Fatal("empty five-num should be zero value")
	}
	if f.String() == "" {
		t.Fatal("String should render")
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i % 10) // mean 4.5
	}
	lo, hi := BootstrapCI(xs, 0.95, 500, 42)
	if lo > 4.5 || hi < 4.5 {
		t.Fatalf("CI [%v, %v] should contain the true mean 4.5", lo, hi)
	}
	if hi-lo > 2 {
		t.Fatalf("CI [%v, %v] too wide for n=200", lo, hi)
	}
	// Deterministic for fixed seed.
	lo2, hi2 := BootstrapCI(xs, 0.95, 500, 42)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap not deterministic for fixed seed")
	}
	if l, h := BootstrapCI(nil, 0.95, 100, 1); l != 0 || h != 0 {
		t.Fatal("empty bootstrap should be zeros")
	}
}

func TestRelChange(t *testing.T) {
	if got := RelChange(2.0, 3.0); !almost(got, 50, 1e-12) {
		t.Fatalf("RelChange = %v", got)
	}
	if got := RelChange(2.0, 1.0); !almost(got, -50, 1e-12) {
		t.Fatalf("RelChange = %v", got)
	}
	if RelChange(0, 5) != 0 {
		t.Fatal("zero baseline should not divide")
	}
}

// Property: quantiles are monotonic in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		prev := xs[0]
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutliers(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 2, 2, 1, 3, 2, 50}
	if got := UpperOutlierCount(xs, 1.5); got != 1 {
		t.Fatalf("upper outliers = %d", got)
	}
	if UpperOutlierCount([]float64{1, 2}, 1.5) != 0 {
		t.Fatal("tiny samples: 0 upper outliers")
	}
	// Symmetric low outlier (with a non-degenerate IQR).
	lows := []float64{-50, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if UpperOutlierCount(lows, 1.5) != 0 {
		t.Fatal("low outlier is not an upper outlier")
	}
}
