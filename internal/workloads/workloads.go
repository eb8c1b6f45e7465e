// Package workloads implements the paper's workloads — N-body and
// Babelstream benchmarks, the MiniFE mini-application, and schedbench (the
// motivation example) — each in two forms:
//
//   - A real, goroutine-parallel Go kernel (NBody, Stream, MiniFE,
//     SchedBench types) with verified numerics, usable natively and in
//     testing.B benchmarks.
//   - A simulation cost model (the *Spec types' Body method), which maps
//     the same computational structure — parallel regions, work units,
//     compute cycles, memory traffic, reductions — onto the simulated
//     machine through a parmodel.Model (the OpenMP or SYCL preset of
//     parmodel's one runtime team).
//
// The SYCLFactor on each spec carries the per-workload efficiency gap
// between the DPC++ and OpenMP binaries observed in the paper's baselines
// (N-body ~1.3x, Babelstream ~1.1x, MiniFE ~1.9x), applied only when the
// model identifies as "sycl".
package workloads

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/parmodel"
)

// Workload is a named simulation cost model.
type Workload interface {
	// Name returns the workload's short name ("nbody", "babelstream",
	// "minife", "schedbench", "svcloop", "logwriter").
	Name() string
	// Body returns the workload body to run against a runtime model.
	Body() parmodel.Body
}

// IOWorkload is implemented by workloads that block on simulated devices.
// The experiment layer registers the declared devices on the scheduler
// before the workload starts; a body referencing an undeclared device name
// panics at run time.
type IOWorkload interface {
	Workload
	// Devices lists the devices the workload blocks on.
	Devices() []cpusched.DeviceSpec
}

// syclScale returns the per-workload cost multiplier for the given model.
func syclScale(m parmodel.Model, factor float64) float64 {
	if m.Name() == "sycl" && factor > 0 {
		return factor
	}
	return 1.0
}

// unitsFor resolves a spec's work-unit count: an explicit positive value is
// used as-is; otherwise 8 units per team thread, which divides evenly for
// every strategy (so static partitioning has no remainder imbalance, as
// with real iteration counts that dwarf the thread count) while leaving
// dynamic schedules enough chunks to redistribute.
func unitsFor(m parmodel.Model, explicit int) int {
	if explicit > 0 {
		return explicit
	}
	return m.Threads() * 8
}

// ByName constructs a workload with the given per-platform size preset.
// Sizes are chosen in the experiment package; this helper serves the CLI.
func ByName(name string, size string) (Workload, error) {
	small := size == "small"
	switch name {
	case "nbody":
		s := DefaultNBodySpec()
		if small {
			s.Bodies = 4096
			s.Steps = 4
		}
		return s, nil
	case "babelstream":
		s := DefaultStreamSpec()
		if small {
			s.ArrayBytes = 8 << 20
			s.Iters = 10
		}
		return s, nil
	case "minife":
		s := DefaultMiniFESpec()
		if small {
			s.Dim = 32
			s.CGIters = 15
		}
		return s, nil
	case "schedbench":
		s := DefaultSchedBenchSpec()
		if small {
			s.Outer = 10
		}
		return s, nil
	case "svcloop":
		s := DefaultSvcLoopSpec()
		if small {
			s.Outer = 8
			s.Requests = 64
		}
		return s, nil
	case "logwriter":
		s := DefaultLogWriterSpec()
		if small {
			s.Outer = 10
			s.Records = 128
		}
		return s, nil
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
}

// Names lists the available workloads.
func Names() []string {
	return []string{"nbody", "babelstream", "minife", "schedbench", "svcloop", "logwriter"}
}
