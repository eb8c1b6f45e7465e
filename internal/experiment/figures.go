package experiment

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// FigureSeries is one box in a motivation figure: execution-time
// distribution (ms) at one x position for one system.
type FigureSeries struct {
	System string // "A64FX:reserved" or "A64FX:w/o"
	X      string // x-axis label, e.g. "st:1" or "48"
	Box    stats.FiveNum
	SD     float64
	Mean   float64
}

// systemLabel maps a platform to the figure legend label.
func systemLabel(name string) string {
	switch name {
	case machine.A64FXRsv:
		return "A64FX:reserved"
	case machine.A64FXNoRsv:
		return "A64FX:w/o"
	default:
		return name
	}
}

// Figure1Exec reproduces the schedbench motivation figure: execution-time
// distributions across schedule×chunk combinations (x labels in the paper's
// "xy:number" format) on the A64FX with and without firmware-reserved OS
// cores.
func Figure1Exec(ctx context.Context, e Executor, reps int, seed uint64) ([]FigureSeries, error) {
	type combo struct {
		sched parmodel.Schedule
		label string
		chunk int
	}
	var combos []combo
	for _, sc := range []struct {
		s     parmodel.Schedule
		short string
	}{{parmodel.Static, "st"}, {parmodel.Dynamic, "dy"}, {parmodel.Guided, "gd"}} {
		for _, chunk := range []int{1, 8, 64} {
			combos = append(combos, combo{sc.s, fmt.Sprintf("%s:%d", sc.short, chunk), chunk})
		}
	}
	var out []FigureSeries
	prog := e.cells(2 * len(combos))
	for _, pname := range []string{machine.A64FXRsv, machine.A64FXNoRsv} {
		p, err := platform.New(pname)
		if err != nil {
			return nil, err
		}
		w, err := p.WorkloadSpec("schedbench")
		if err != nil {
			return nil, err
		}
		for _, c := range combos {
			cfg := parmodel.OpenMP()
			cfg.Schedule = c.sched
			cfg.Chunk = c.chunk
			spec := Spec{
				Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm,
				Seed: SeedFor(seed, "fig1", pname, c.label),
				OMP:  &cfg,
			}
			times, err := e.SeriesTimes(ctx, spec, reps)
			if err != nil {
				return nil, fmt.Errorf("figure1 %s %s: %w", pname, c.label, err)
			}
			prog.finish("fig1 " + pname + " " + c.label)
			sum := stats.SummarizeTimes(times)
			ms := make([]float64, len(times))
			for i, t := range times {
				ms[i] = t.Millis()
			}
			out = append(out, FigureSeries{
				System: systemLabel(pname),
				X:      c.label,
				Box:    stats.FiveNumOf(ms),
				SD:     sum.SD,
				Mean:   sum.Mean,
			})
		}
	}
	return out, nil
}

// Figure2Exec reproduces the Babelstream dot-kernel motivation figure:
// execution-time distributions across thread counts on the two A64FX
// systems. Without reserved cores, variability blows up once all 48 cores
// are occupied by the workload and nothing is left to absorb OS activity.
func Figure2Exec(ctx context.Context, e Executor, reps int, seed uint64) ([]FigureSeries, error) {
	threadCounts := []int{8, 16, 24, 32, 40, 48}
	var out []FigureSeries
	prog := e.cells(2 * len(threadCounts))
	for _, pname := range []string{machine.A64FXRsv, machine.A64FXNoRsv} {
		p, err := platform.New(pname)
		if err != nil {
			return nil, err
		}
		spec := workloads.StreamSpec{
			ArrayBytes: 256 << 20,
			Iters:      60,
			Kernels:    []workloads.StreamKernel{workloads.KDot},
			SYCLFactor: 1.10,
		}
		for _, threads := range threadCounts {
			user := p.Topo.UserMask()
			cpus := user.List()
			if threads > len(cpus) {
				return nil, fmt.Errorf("figure2: %d threads > %d user cpus", threads, len(cpus))
			}
			plan := &mitigate.Plan{
				Strategy: mitigate.Rm,
				Threads:  threads,
				Allowed:  user,
			}
			sp := Spec{
				Platform: p, Workload: spec, Model: "omp",
				Seed: SeedFor(seed, "fig2", pname, fmt.Sprint(threads)),
			}
			times, err := e.seriesWithPlan(ctx, sp, plan, reps)
			if err != nil {
				return nil, fmt.Errorf("figure2 %s %d: %w", pname, threads, err)
			}
			prog.finish(fmt.Sprintf("fig2 %s %d threads", pname, threads))
			sum := stats.SummarizeTimes(times)
			ms := make([]float64, len(times))
			for i, tt := range times {
				ms[i] = tt.Millis()
			}
			out = append(out, FigureSeries{
				System: systemLabel(pname),
				X:      fmt.Sprint(threads),
				Box:    stats.FiveNumOf(ms),
				SD:     sum.SD,
				Mean:   sum.Mean,
			})
		}
	}
	return out, nil
}
