package workloads

import (
	"fmt"
	"math"

	"repro/internal/parmodel"
)

// ---------------------------------------------------------------------------
// Real MiniFE-style kernel: an implicit 3-D finite-element style problem on
// a structured dim^3 grid with a 27-point coupling stencil, assembled into
// CSR, solved with unpreconditioned conjugate gradient. The CG building
// blocks (SpMV, dot, axpy/waxpby) are goroutine-parallel, mirroring the
// structure of the MiniFE mini-application.
// ---------------------------------------------------------------------------

// CSR is a compressed sparse row matrix.
type CSR struct {
	N      int
	RowPtr []int
	ColIdx []int
	Values []float64
}

// MiniFE is the assembled problem plus solver state.
type MiniFE struct {
	Dim int
	A   *CSR
	X   []float64 // solution
	B   []float64 // right-hand side
}

// NewMiniFE assembles the dim^3 27-point problem. The matrix is the
// diagonally dominant M-matrix with diagonal 26 and -1 couplings to all
// neighbors present in the grid, so x = ones is the solution of A x = b
// with b = A*ones.
func NewMiniFE(dim int, threads int) *MiniFE {
	n := dim * dim * dim
	m := &MiniFE{Dim: dim}
	rowPtr := make([]int, n+1)
	// First pass: count nnz per row.
	counts := make([]int, n)
	parallelRanges(n, threads, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x, y, z := r%dim, (r/dim)%dim, r/(dim*dim)
			c := 0
			for dz := -1; dz <= 1; dz++ {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny, nz := x+dx, y+dy, z+dz
						if nx >= 0 && nx < dim && ny >= 0 && ny < dim && nz >= 0 && nz < dim {
							c++
						}
					}
				}
			}
			counts[r] = c
		}
	})
	for r := 0; r < n; r++ {
		rowPtr[r+1] = rowPtr[r] + counts[r]
	}
	nnz := rowPtr[n]
	colIdx := make([]int, nnz)
	values := make([]float64, nnz)
	parallelRanges(n, threads, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x, y, z := r%dim, (r/dim)%dim, r/(dim*dim)
			p := rowPtr[r]
			for dz := -1; dz <= 1; dz++ {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny, nz := x+dx, y+dy, z+dz
						if nx < 0 || nx >= dim || ny < 0 || ny >= dim || nz < 0 || nz >= dim {
							continue
						}
						c := nx + ny*dim + nz*dim*dim
						colIdx[p] = c
						if c == r {
							values[p] = 26.0
						} else {
							values[p] = -1.0
						}
						p++
					}
				}
			}
		}
	})
	m.A = &CSR{N: n, RowPtr: rowPtr, ColIdx: colIdx, Values: values}
	// b = A * ones, x0 = 0 => exact solution ones.
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	m.B = make([]float64, n)
	m.A.SpMV(ones, m.B, threads)
	m.X = make([]float64, n)
	return m
}

// SpMV computes y = A*x with `threads` goroutines.
func (a *CSR) SpMV(x, y []float64, threads int) {
	parallelRanges(a.N, threads, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
				sum += a.Values[p] * x[a.ColIdx[p]]
			}
			y[r] = sum
		}
	})
}

func dotVec(a, b []float64, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	partials := make([]float64, threads)
	parallelIndexedRanges(len(a), threads, func(t, lo, hi int) {
		var sum float64
		for i := lo; i < hi; i++ {
			sum += a[i] * b[i]
		}
		partials[t] = sum
	})
	var total float64
	for _, p := range partials {
		total += p
	}
	return total
}

// waxpby computes w = alpha*x + beta*y.
func waxpby(w []float64, alpha float64, x []float64, beta float64, y []float64, threads int) {
	parallelRanges(len(w), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i] = alpha*x[i] + beta*y[i]
		}
	})
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iters    int
	Residual float64 // final ||r||_2
}

// SolveCG runs up to maxIters of conjugate gradient (or until the residual
// norm falls below tol) and returns the iteration count and final residual.
func (m *MiniFE) SolveCG(maxIters int, tol float64, threads int) CGResult {
	n := m.A.N
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	// r = b - A*x (x starts at 0 so r = b).
	m.A.SpMV(m.X, ap, threads)
	waxpby(r, 1, m.B, -1, ap, threads)
	copy(p, r)
	rr := dotVec(r, r, threads)
	var it int
	for it = 0; it < maxIters && math.Sqrt(rr) > tol; it++ {
		m.A.SpMV(p, ap, threads)
		alpha := rr / dotVec(p, ap, threads)
		waxpby(m.X, 1, m.X, alpha, p, threads)
		waxpby(r, 1, r, -alpha, ap, threads)
		rrNew := dotVec(r, r, threads)
		beta := rrNew / rr
		rr = rrNew
		waxpby(p, 1, r, beta, p, threads)
	}
	return CGResult{Iters: it, Residual: math.Sqrt(rr)}
}

// SolutionError returns max |x_i - 1|, the error against the known exact
// solution.
func (m *MiniFE) SolutionError() float64 {
	var worst float64
	for _, v := range m.X {
		if e := math.Abs(v - 1); e > worst {
			worst = e
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Simulation cost model
// ---------------------------------------------------------------------------

// MiniFESpec is the MiniFE cost model: an assembly phase followed by
// CGIters conjugate-gradient iterations, each comprising one SpMV (memory-
// heavy with irregular gather compute), two dots (memory + serial
// reduction) and three waxpby updates (pure streaming). Its many small
// kernels per iteration are what expose SYCL's per-kernel submission
// overhead, and its SYCLFactor carries the large DPC++ SpMV gather
// inefficiency the paper's ~1.9x baseline gap implies.
type MiniFESpec struct {
	// Dim is the grid dimension; rows = Dim^3, nnz ~= 27*Dim^3.
	Dim int
	// CGIters is the number of CG iterations (MiniFE runs a fixed count).
	CGIters int
	// Units is the number of work units per kernel.
	Units int
	// SYCLFactor is the DPC++-vs-OpenMP gap for this application.
	SYCLFactor float64
}

// DefaultMiniFESpec sizes the problem so the Intel baseline lands near the
// paper's ~1.06 s.
func DefaultMiniFESpec() MiniFESpec {
	return MiniFESpec{
		Dim:        96,
		CGIters:    72,
		SYCLFactor: 1.75,
	}
}

// Name implements Workload.
func (s MiniFESpec) Name() string { return "minife" }

// Body implements Workload.
func (s MiniFESpec) Body() parmodel.Body {
	return func(m parmodel.Model) {
		f := syclScale(m, s.SYCLFactor)
		units := unitsFor(m, s.Units)
		rows := float64(s.Dim) * float64(s.Dim) * float64(s.Dim)
		nnz := rows * 27
		vecBytes := rows * 8

		// Assembly: compute element operators + scatter into CSR. Mixed
		// compute and memory, one pass.
		asmUnit := parmodel.Cost{
			Cycles: nnz * 6 / float64(units) * f,
			Bytes:  nnz * 16 / float64(units) * f,
		}
		m.ParallelFor(units, func(int) parmodel.Cost { return asmUnit })

		spmvUnit := parmodel.Cost{
			// Gather + FMA per nonzero; ~2 cycles each for OpenMP.
			Cycles: nnz * 2 / float64(units) * f,
			// values + colidx reads + x gather traffic + y write.
			Bytes: (nnz*12 + vecBytes*2) / float64(units) * f,
		}
		dotUnit := parmodel.Cost{
			Cycles: rows * 1 / float64(units) * f,
			Bytes:  vecBytes * 2 / float64(units) * f,
		}
		waxpbyUnit := parmodel.Cost{
			Cycles: rows * 1 / float64(units) * f,
			Bytes:  vecBytes * 3 / float64(units) * f,
		}
		for it := 0; it < s.CGIters; it++ {
			m.ParallelFor(units, func(int) parmodel.Cost { return spmvUnit })
			for d := 0; d < 2; d++ {
				m.ParallelFor(units, func(int) parmodel.Cost { return dotUnit })
				m.MasterCompute(float64(m.Threads()) * 30 * f)
			}
			for w := 0; w < 3; w++ {
				m.ParallelFor(units, func(int) parmodel.Cost { return waxpbyUnit })
			}
		}
	}
}

// String describes the spec.
func (s MiniFESpec) String() string {
	return fmt.Sprintf("minife dim=%d cg=%d", s.Dim, s.CGIters)
}
