// Package stats provides the summary statistics the evaluation uses:
// mean / sample standard deviation (the paper's variability metric in
// Table 2), percentiles, five-number summaries for the box plots of
// Figures 1-2, coefficient of variation, and bootstrap confidence
// intervals. A Welford accumulator supports single-pass streaming.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Welford is a numerically stable streaming accumulator for mean/variance.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (n-1 denominator; 0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// SD returns the sample standard deviation.
func (w *Welford) SD() float64 { return math.Sqrt(w.Var()) }

// CV returns the coefficient of variation (SD/mean; 0 when mean is 0).
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.SD() / w.mean
}

// Summary condenses a sample of execution times.
type Summary struct {
	N      int
	Mean   float64
	SD     float64
	CV     float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary over raw float observations.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   w.Mean(),
		SD:     w.SD(),
		CV:     w.CV(),
		Min:    sorted[0],
		P25:    Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.50),
		P75:    Quantile(sorted, 0.75),
		P95:    Quantile(sorted, 0.95),
		P99:    Quantile(sorted, 0.99),
		Max:    sorted[len(sorted)-1],
	}
}

// SummarizeTimes computes a Summary over simulated times, in milliseconds —
// the unit the paper's tables use for standard deviations.
func SummarizeTimes(ts []sim.Time) Summary {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.Millis()
	}
	return Summarize(xs)
}

// Quantile returns the q-quantile (0..1) of sorted data using linear
// interpolation (the "type 7" convention); the caller must pass sorted
// data. Out-of-range q clamps to the extremes; a NaN q yields NaN (it
// used to index out of range and panic).
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	// a + frac*(b-a) rather than a*(1-frac)+b*frac: the two-product form
	// rounds 1 ulp above b when a == b (e.g. Quantile([114,114], 0.1) gave
	// 114.00000000000001), breaking the min/max bound. Clamp for the
	// residual cases where b-a itself rounds up.
	a, b := sorted[lo], sorted[lo+1]
	v := a + frac*(b-a)
	if v < a {
		return a
	}
	if v > b {
		return b
	}
	return v
}

// FiveNum is the box-plot five-number summary used for Figures 1-2.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// FiveNumOf computes the five-number summary of xs.
func FiveNumOf(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return FiveNum{
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.50),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// IQR returns the interquartile range.
func (f FiveNum) IQR() float64 { return f.Q3 - f.Q1 }

func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f", f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// splitmix64 for the bootstrap's internal PRNG, kept local so stats does not
// depend on the simulation packages.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean at the given confidence level (e.g. 0.95), using iters resamples and
// a fixed seed for reproducibility.
func BootstrapCI(xs []float64, level float64, iters int, seed uint64) (lo, hi float64) {
	if len(xs) == 0 || iters <= 0 {
		return 0, 0
	}
	r := &prng{s: seed}
	means := make([]float64, iters)
	for i := 0; i < iters; i++ {
		var sum float64
		for j := 0; j < len(xs); j++ {
			sum += xs[r.intn(len(xs))]
		}
		means[i] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha)
}

// RelChange returns (observed-baseline)/baseline as a percentage, the
// metric of the paper's Tables 3-6.
func RelChange(baseline, observed float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (observed - baseline) / baseline * 100
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// UpperOutlierCount counts observations above the upper Tukey fence,
// Q3 + k*IQR — the "significant outliers" the paper selects worst-case
// traces from. The conventional k is 1.5.
func UpperOutlierCount(xs []float64, k float64) int {
	if len(xs) < 4 {
		return 0
	}
	f := FiveNumOf(xs)
	hi := f.Q3 + k*f.IQR()
	n := 0
	for _, x := range xs {
		if x > hi {
			n++
		}
	}
	return n
}
