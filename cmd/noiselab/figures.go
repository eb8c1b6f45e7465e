package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/cpusched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func readConfig(r io.Reader) (*core.Config, error) { return core.ReadConfigJSON(r) }

// cmdFig3 collects one traced run and prints the head of the trace in the
// paper's Figure-3 format.
func cmdFig3(args []string) error {
	c := newCommon("fig3")
	limit := c.fs.Int("n", 12, "number of events to print")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	p, w, strat, err := c.resolve()
	if err != nil {
		return err
	}
	spec := repro.Spec{
		Platform: p, Workload: w, Model: *c.model, Strategy: strat,
		Seed: *c.seed, Tracing: true,
	}
	if err := c.applyDeadline(&spec); err != nil {
		return err
	}
	res, err := runOnce(spec)
	if err != nil {
		return err
	}
	tr := res.Trace
	if len(tr.Events) > *limit {
		tr = &trace.Trace{
			Platform: tr.Platform, Workload: tr.Workload, Model: tr.Model,
			Strategy: tr.Strategy, Seed: tr.Seed, ExecTime: tr.ExecTime,
			Events: tr.Events[:*limit],
		}
	}
	fmt.Printf("Figure 3: sample entries from the osnoise-style trace (%d of %d events)\n\n",
		len(tr.Events), len(res.Trace.Events))
	return repro.WriteTraceText(os.Stdout, tr)
}

// cmdFig4 demonstrates the delta-refinement of §4.2 / Figure 4 on a small
// synthetic single-source example, printing the worst-case schedule before
// and after subtraction of the average noise.
func cmdFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk := func(exec sim.Time, durs ...sim.Time) *trace.Trace {
		tr := &trace.Trace{ExecTime: exec, Workload: "demo"}
		for i, d := range durs {
			tr.Events = append(tr.Events, trace.Event{
				CPU: 0, Class: cpusched.ClassThread, Source: "kworker/0:1",
				Start: sim.Time(i+1) * 20 * sim.Millisecond, Duration: d,
			})
		}
		return tr
	}
	normals := []*trace.Trace{
		mk(100*sim.Millisecond, 2*sim.Millisecond, 2*sim.Millisecond),
		mk(100*sim.Millisecond, 2*sim.Millisecond, 2*sim.Millisecond),
		mk(100*sim.Millisecond, 2*sim.Millisecond, 2*sim.Millisecond),
	}
	worst := mk(140*sim.Millisecond,
		2*sim.Millisecond, 30*sim.Millisecond, 2*sim.Millisecond, 8*sim.Millisecond)
	all := append(normals, worst)
	profile := repro.BuildProfile(all)
	refined := repro.Refine(worst, profile)

	fmt.Println("Figure 4: worst-case trace minus average system noise")
	fmt.Println("\naverage profile (3 normal runs + worst case):")
	for _, s := range profile.SortedSources() {
		fmt.Printf("  %-28s %.2f occurrences/run, mean %.3f ms\n",
			s.Key.String(), s.MeanCountPerTrace(), float64(s.MeanDur())/1e6)
	}
	fmt.Println("\nworst-case trace:")
	for _, e := range worst.Events {
		fmt.Printf("  t=%6.1fms  %-13s %-14s %8.3f ms\n",
			e.Start.Millis(), e.Class, e.Source, float64(e.Duration)/1e6)
	}
	fmt.Println("\nrefined (delta) trace to inject:")
	if len(refined.Events) == 0 {
		fmt.Println("  (empty: worst case equals the average)")
	}
	for _, e := range refined.Events {
		fmt.Printf("  t=%6.1fms  %-13s %-14s %8.3f ms\n",
			e.Start.Millis(), e.Class, e.Source, float64(e.Duration)/1e6)
	}
	return nil
}

// cmdFig5 builds a small real config and prints its JSON structure (the
// paper's Figure 5).
func cmdFig5(args []string) error {
	c := newCommon("fig5")
	collect := c.fs.Int("collect", 30, "traced executions to collect")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.rejectDeadline(); err != nil {
		return err
	}
	p, _, strat, err := c.resolve()
	if err != nil {
		return err
	}
	cfg, _, err := repro.BuildConfigExec(context.Background(), collectExec(), p, *c.workload,
		repro.ConfigSource{Model: *c.model, Strategy: strat, ID: 1},
		*collect, true, *c.seed)
	if err != nil {
		return err
	}
	// Keep the dump small: two CPUs, three events each.
	trimmed := *cfg
	if len(trimmed.CPUs) > 2 {
		trimmed.CPUs = trimmed.CPUs[:2]
	}
	for i := range trimmed.CPUs {
		if len(trimmed.CPUs[i].Events) > 3 {
			trimmed.CPUs[i].Events = trimmed.CPUs[i].Events[:3]
		}
	}
	fmt.Printf("Figure 5: generated configuration structure (%d events on %d CPUs total; trimmed view)\n\n",
		cfg.NumEvents(), len(cfg.CPUs))
	return trimmed.WriteJSON(os.Stdout)
}
