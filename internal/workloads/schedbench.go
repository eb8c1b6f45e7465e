package workloads

import (
	"sync"
	"sync/atomic"

	"repro/internal/parmodel"
)

// ---------------------------------------------------------------------------
// Real schedbench kernel: a loop-scheduling microbenchmark in the spirit of
// the schedbench the paper's motivation example uses — an imbalanced
// parallel loop executed under static, dynamic, or guided scheduling with a
// chunk size, measuring how scheduling interacts with load imbalance.
// ---------------------------------------------------------------------------

// SchedKind selects the real kernel's loop schedule.
type SchedKind int

// Schedule kinds for the real schedbench kernel.
const (
	SchedStatic SchedKind = iota
	SchedDynamic
	SchedGuided
)

// SchedBench runs an imbalanced loop: iteration i performs Work*(1 +
// Imbalance*i/N) spin units.
type SchedBench struct {
	N         int
	Work      int     // base spin units per iteration
	Imbalance float64 // 0 = uniform; 1 = last iteration costs 2x
}

// spin burns CPU deterministically and returns a checksum so the work is
// not optimized away.
func spin(units int) float64 {
	x := 1.0
	for i := 0; i < units; i++ {
		x += 1.0 / x
	}
	return x
}

func (sb *SchedBench) workOf(i int) int {
	return sb.Work + int(float64(sb.Work)*sb.Imbalance*float64(i)/float64(sb.N))
}

// Run executes the loop with the given schedule, chunk and thread count,
// returning a checksum.
func (sb *SchedBench) Run(kind SchedKind, chunk, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	sums := make([]float64, threads)
	switch kind {
	case SchedStatic:
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sum float64
				for base := t * chunk; base < sb.N; base += threads * chunk {
					hi := base + chunk
					if hi > sb.N {
						hi = sb.N
					}
					for i := base; i < hi; i++ {
						sum += spin(sb.workOf(i))
					}
				}
				sums[t] = sum
			}()
		}
		wg.Wait()
	case SchedDynamic:
		var next int64
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sum float64
				for {
					lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
					if lo >= sb.N {
						break
					}
					hi := lo + chunk
					if hi > sb.N {
						hi = sb.N
					}
					for i := lo; i < hi; i++ {
						sum += spin(sb.workOf(i))
					}
				}
				sums[t] = sum
			}()
		}
		wg.Wait()
	case SchedGuided:
		var mu sync.Mutex
		next := 0
		claim := func() (int, int) {
			mu.Lock()
			defer mu.Unlock()
			if next >= sb.N {
				return -1, -1
			}
			size := (sb.N - next + 2*threads - 1) / (2 * threads)
			if size < chunk {
				size = chunk
			}
			lo := next
			hi := lo + size
			if hi > sb.N {
				hi = sb.N
			}
			next = hi
			return lo, hi
		}
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sum float64
				for {
					lo, hi := claim()
					if lo < 0 {
						break
					}
					for i := lo; i < hi; i++ {
						sum += spin(sb.workOf(i))
					}
				}
				sums[t] = sum
			}()
		}
		wg.Wait()
	}
	var total float64
	for _, s := range sums {
		total += s
	}
	return total
}

// ---------------------------------------------------------------------------
// Simulation cost model
// ---------------------------------------------------------------------------

// SchedBenchSpec is the schedbench cost model: Outer repetitions of a
// parallel loop of N iterations whose cost ramps with Imbalance. The OpenMP
// schedule/chunk is configured on the runtime (parmodel.Config), not here, so Figure
// 1's x-axis (st/dy/gd x chunk) is a runtime-config sweep over this one
// workload.
type SchedBenchSpec struct {
	// Outer is the number of repetitions (regions).
	Outer int
	// N is the trip count per region (work units).
	N int
	// CyclesPerIter is the base cost of one iteration.
	CyclesPerIter float64
	// Imbalance ramps iteration cost: iteration i costs
	// CyclesPerIter * (1 + Imbalance*i/N).
	Imbalance float64
	// SYCLFactor for completeness; schedbench is an OpenMP-only benchmark
	// in the paper.
	SYCLFactor float64
}

// DefaultSchedBenchSpec returns a ~100 ms-per-run configuration.
func DefaultSchedBenchSpec() SchedBenchSpec {
	return SchedBenchSpec{
		Outer:         50,
		N:             512,
		CyclesPerIter: 600e3,
		Imbalance:     0.5,
		SYCLFactor:    1.0,
	}
}

// Name implements Workload.
func (s SchedBenchSpec) Name() string { return "schedbench" }

// Body implements Workload.
func (s SchedBenchSpec) Body() parmodel.Body {
	return func(m parmodel.Model) {
		f := syclScale(m, s.SYCLFactor)
		for o := 0; o < s.Outer; o++ {
			m.ParallelFor(s.N, func(i int) parmodel.Cost {
				c := s.CyclesPerIter * (1 + s.Imbalance*float64(i)/float64(s.N))
				return parmodel.Cost{Cycles: c * f}
			})
		}
	}
}
