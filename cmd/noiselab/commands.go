package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro"
	"repro/internal/experiment"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// obsReg is the shared counter registry every observed run publishes into
// (lazily created; one per invocation so counters accumulate across cells).
var (
	obsRegOnce sync.Once
	obsReg     *obs.Registry
)

func obsRegistry() *obs.Registry {
	obsRegOnce.Do(func() { obsReg = obs.NewRegistry() })
	return obsReg
}

// timelineOnce guards -timeline-out: the first recorded timeline wins (one
// representative run; a study would otherwise overwrite the file per cell).
var timelineOnce sync.Once

// writeTimelineOut writes a recorder's timeline to the -timeline-out file.
func writeTimelineOut(rec *obs.Recorder) {
	timelineOnce.Do(func() {
		f, err := os.Create(gTimelineOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "noiselab: -timeline-out: %v\n", err)
			return
		}
		defer f.Close()
		if err := rec.WriteChromeJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "noiselab: -timeline-out: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "timeline: %d events -> %s (open in Perfetto / chrome://tracing)\n",
			len(rec.Events()), gTimelineOut)
	})
}

// gWorlds is the process-wide warm-world pool: every study-running
// subcommand's executor shares it, so worlds built for one series are
// forked and reused by the next (lazily created like the obs registry).
var (
	gWorldsOnce sync.Once
	gWorlds     *repro.WorldPool
)

func worldPool() *repro.WorldPool {
	gWorldsOnce.Do(func() { gWorlds = repro.NewWorldPool() })
	return gWorlds
}

// newExec builds the executor every study-running subcommand shares,
// honoring the global -parallel, -batch, -v, -obs and -timeline-out flags.
func newExec() repro.Executor {
	// gBatch was validated at startup; the zero policy on error is BatchAuto.
	batch, _ := repro.ParseBatchPolicy(gBatch)
	e := repro.Executor{Parallelism: gParallel, Batch: batch, Worlds: worldPool()}
	if gVerbose {
		e.OnCell = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "cell %d/%d %s\n", done, total, label)
		}
	}
	if gObs || gTimelineOut != "" {
		e.Obs = &experiment.ObsOptions{
			Timeline:   gTimelineOut != "",
			Reg:        obsRegistry(),
			OnTimeline: writeTimelineOut,
			FlightSink: os.Stderr,
		}
	}
	return e
}

// commonFlags bundles the run-configuration flags shared by several
// subcommands.
type commonFlags struct {
	fs        *flag.FlagSet
	platform  *string
	workload  *string
	model     *string
	strategy  *string
	seed      *uint64
	dlRuntime *int64
	dlPeriod  *int64
}

func newCommon(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:       fs,
		platform: fs.String("platform", repro.Intel9700KF, "platform preset"),
		workload: fs.String("workload", "nbody", "workload name"),
		model:    fs.String("model", "omp", "programming model: omp or sycl"),
		strategy: fs.String("strategy", "Rm", "mitigation strategy (Rm, RmHK, RmHK2, TP, TPHK, TPHK2, with optional -SMT suffix)"),
		seed:     fs.Uint64("seed", 1, "random seed"),
		dlRuntime: fs.Int64("dl-runtime-ns", 0,
			"SCHED_DEADLINE per-thread CBS runtime in ns (0 = fair class; requires -dl-period-ns)"),
		dlPeriod: fs.Int64("dl-period-ns", 0,
			"SCHED_DEADLINE per-thread CBS period in ns (0 = fair class; requires -dl-runtime-ns)"),
	}
}

// applyDeadline copies the -dl-* flags onto a spec, validating the pair.
func (c *commonFlags) applyDeadline(spec *repro.Spec) error {
	if *c.dlRuntime == 0 && *c.dlPeriod == 0 {
		return nil
	}
	if *c.dlRuntime <= 0 || *c.dlPeriod <= 0 || *c.dlRuntime > *c.dlPeriod {
		return fmt.Errorf("-dl-runtime-ns %d and -dl-period-ns %d must both be positive with runtime <= period",
			*c.dlRuntime, *c.dlPeriod)
	}
	spec.DLRuntime = sim.Time(*c.dlRuntime)
	spec.DLPeriod = sim.Time(*c.dlPeriod)
	return nil
}

func (c *commonFlags) resolve() (*repro.Platform, repro.Workload, repro.Strategy, error) {
	p, err := repro.NewPlatform(*c.platform)
	if err != nil {
		return nil, nil, repro.Strategy{}, err
	}
	w, err := p.WorkloadSpec(*c.workload)
	if err != nil {
		return nil, nil, repro.Strategy{}, err
	}
	strat, err := mitigate.Parse(*c.strategy)
	if err != nil {
		return nil, nil, repro.Strategy{}, err
	}
	return p, w, strat, nil
}

func cmdPlatforms() error {
	for _, name := range repro.PlatformNames() {
		p, err := repro.NewPlatform(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %2d cores x %d threads @ %.1f GHz, %.0f GB/s, noise=%s\n",
			name, p.Topo.Cores, p.Topo.ThreadsPerCore, p.Topo.BaseGHz,
			p.Topo.MemBWGBps, p.Noise.Name)
	}
	return nil
}

func cmdWorkloads() error {
	for _, name := range repro.WorkloadNames() {
		fmt.Println(name)
	}
	return nil
}

func cmdRun(args []string) error {
	c := newCommon("run")
	traceOut := c.fs.String("trace", "", "write the osnoise-style trace to this file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	p, w, strat, err := c.resolve()
	if err != nil {
		return err
	}
	spec := repro.Spec{
		Platform: p, Workload: w, Model: *c.model, Strategy: strat,
		Seed: *c.seed, Tracing: *traceOut != "",
	}
	if err := c.applyDeadline(&spec); err != nil {
		return err
	}
	if gObs || gTimelineOut != "" {
		spec.Obs = &obs.Options{Timeline: gTimelineOut != "", Reg: obsRegistry()}
	}
	res, err := repro.RunOnce(spec)
	if err != nil {
		return err
	}
	if res.Obs != nil && gTimelineOut != "" {
		writeTimelineOut(res.Obs)
	}
	fmt.Printf("exec time: %.6f s\n", res.ExecTime.Seconds())
	if gVerbose {
		fmt.Printf("kernel: ctxswitches=%d inline-dispatches=%d\n",
			res.ContextSwitches, res.InlineDispatches)
		fmt.Printf("batch: snapshots/run=%d cow-copies/run=%d batched-reps/run=%d\n",
			res.Snapshots, res.CowCopies, res.BatchedReps)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := repro.WriteTraceText(f, res.Trace); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", len(res.Trace.Events), *traceOut)
	}
	return nil
}

func cmdBaseline(args []string) error {
	c := newCommon("baseline")
	reps := c.fs.Int("reps", 50, "repetitions")
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
	times, _, err := repro.RunSeriesExec(context.Background(), newExec(), spec, *reps)
	if err != nil {
		return err
	}
	var ms []float64
	for _, t := range times {
		ms = append(ms, t.Millis())
	}
	s := stats.Summarize(ms)
	fmt.Printf("%s %s %s %s: n=%d mean=%.2fms sd=%.2fms cv=%.3f min=%.2f p95=%.2f max=%.2f\n",
		*c.platform, *c.workload, *c.model, strat.Name(),
		s.N, s.Mean, s.SD, s.CV, s.Min, s.P95, s.Max)
	return nil
}

func cmdGenConfig(args []string) error {
	c := newCommon("gen-config")
	collect := c.fs.Int("collect", 150, "traced executions to collect (paper: 1000)")
	original := c.fs.Bool("original", false, "use the original pessimistic overlap merge instead of the improved one")
	out := c.fs.String("o", "config.json", "output config file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	p, _, strat, err := c.resolve()
	if err != nil {
		return err
	}
	exec := newExec()
	if gVerbose {
		exec.OnRep = func(done, total int) {
			fmt.Fprintf(os.Stderr, "collect %d/%d\n", done, total)
		}
	}
	cfg, pr, err := repro.BuildConfigExec(context.Background(), exec, p, *c.workload,
		repro.ConfigSource{Model: *c.model, Strategy: strat, ID: 1},
		*collect, !*original, *c.seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cfg.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("collected %d traces: baseline mean %.1f ms, worst case %.1f ms (run %d)\n",
		len(pr.Traces), pr.BaselineMean, pr.Worst.ExecTime.Millis(), pr.WorstIndex)
	fmt.Printf("refined %d -> %d events, total delta noise %.3f ms\n",
		len(pr.Worst.Events), len(pr.Refined.Events), float64(pr.Refined.TotalNoise())/1e6)
	fmt.Printf("config: %d events on %d cpus -> %s\n", cfg.NumEvents(), len(cfg.CPUs), *out)
	return nil
}

func cmdInject(args []string) error {
	c := newCommon("inject")
	cfgPath := c.fs.String("config", "", "noise configuration JSON (from gen-config)")
	reps := c.fs.Int("reps", 50, "repetitions (paper: 200)")
	verbose := c.fs.Bool("v", false, "log per-CPU injector setup")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return fmt.Errorf("-config is required")
	}
	f, err := os.Open(*cfgPath)
	if err != nil {
		return err
	}
	cfg, err := readConfig(f)
	f.Close()
	if err != nil {
		return err
	}
	p, w, strat, err := c.resolve()
	if err != nil {
		return err
	}
	if *verbose {
		for _, ce := range cfg.CPUs {
			fmt.Printf("injector-%d: %d events\n", ce.CPU, len(ce.Events))
		}
	}
	spec := repro.Spec{
		Platform: p, Workload: w, Model: *c.model, Strategy: strat,
		Seed: *c.seed, Inject: cfg,
	}
	if err := c.applyDeadline(&spec); err != nil {
		return err
	}
	times, _, err := repro.RunSeriesExec(context.Background(), newExec(), spec, *reps)
	if err != nil {
		return err
	}
	var secs []float64
	for _, t := range times {
		secs = append(secs, t.Seconds())
	}
	s := stats.Summarize(secs)
	fmt.Printf("injected: n=%d mean=%.4fs sd=%.2fms\n", s.N, s.Mean, s.SD*1000)
	if cfg.AnomalyExec > 0 {
		abs, signed := experiment.Accuracy(s.Mean, cfg.AnomalyExec.Seconds())
		neg := ""
		if signed < 0 {
			neg = "(-)"
		}
		fmt.Printf("anomaly exec: %.4fs -> replication accuracy %s%.2f%%\n",
			cfg.AnomalyExec.Seconds(), neg, abs*100)
	}
	return nil
}

func scaleFlags(name string) (*flag.FlagSet, *float64, *uint64) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "multiply repetition counts (1.0 = CI scale; paper scale needs ~8-40x)")
	seed := fs.Uint64("seed", 20250706, "base seed")
	return fs, scale, seed
}

// emitTable prints the table and optionally writes it as CSV.
func emitTable(t *repro.RenderTable, csvPath string) error {
	fmt.Print(t.Text())
	if csvPath == "" {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("csv -> %s\n", csvPath)
	return nil
}

func cmdTable1(args []string) error {
	fs, scale, seed := scaleFlags("table1")
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := repro.NewPlatform(repro.Intel9700KF)
	if err != nil {
		return err
	}
	reps := repro.DefaultReps().Scale(*scale).Baseline
	rows, err := repro.TracingOverheadExec(context.Background(), newExec(), p,
		[]string{"nbody", "babelstream", "minife"}, reps, *seed)
	if err != nil {
		return err
	}
	return emitTable(repro.RenderTable1(rows), *csvPath)
}

func cmdTable2(args []string) error {
	fs, scale, seed := scaleFlags("table2")
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	platformsFlag := fs.String("platforms", repro.Intel9700KF+","+repro.AMD9950X3D, "comma-separated platforms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reps := repro.DefaultReps().Scale(*scale).Baseline
	var results []*repro.BaselineResult
	for _, pname := range strings.Split(*platformsFlag, ",") {
		p, err := repro.NewPlatform(pname)
		if err != nil {
			return err
		}
		for _, w := range []string{"nbody", "babelstream", "minife"} {
			res, err := (experiment.BaselineStudy{
				Platform: p, Workload: w, Reps: reps, Seed: *seed,
				Exec: newExec(),
			}).Run()
			if err != nil {
				return err
			}
			results = append(results, res)
		}
	}
	return emitTable(repro.RenderTable2(results), *csvPath)
}

func runInjectionStudy(workload string, scale float64, seed uint64) (*repro.InjectionResult, error) {
	var plats []*repro.Platform
	for _, name := range []string{repro.Intel9700KF, repro.AMD9950X3D} {
		p, err := repro.NewPlatform(name)
		if err != nil {
			return nil, err
		}
		plats = append(plats, p)
	}
	cfgPer := map[string]int{repro.Intel9700KF: 2, repro.AMD9950X3D: 1}
	if workload == "minife" {
		cfgPer[repro.AMD9950X3D] = 2
	}
	st := experiment.InjectionStudy{
		Platforms:          plats,
		Workload:           workload,
		Reps:               repro.DefaultReps().Scale(scale),
		Seed:               seed,
		Improved:           true,
		ConfigsPerPlatform: cfgPer,
		Exec:               newExec(),
	}
	return st.Run()
}

func cmdTableN(args []string, num int, workload string) error {
	fs, scale, seed := scaleFlags(fmt.Sprintf("table%d", num))
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runInjectionStudy(workload, *scale, *seed)
	if err != nil {
		return err
	}
	return emitTable(repro.RenderInjectionTable(num, res), *csvPath)
}

func cmdTable6(args []string) error {
	fs, scale, seed := scaleFlags("table6")
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var all []*repro.InjectionResult
	for _, w := range []string{"nbody", "babelstream", "minife"} {
		res, err := runInjectionStudy(w, *scale, *seed)
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	agg := repro.AggregateChange(all)
	if err := emitTable(repro.RenderTable6(agg), *csvPath); err != nil {
		return err
	}
	return repro.WriteChecks(os.Stdout, repro.CheckInjectionShape(agg))
}

func cmdTable7(args []string) error {
	fs, scale, seed := scaleFlags("table7")
	csvPath := fs.String("csv", "", "also write the table as CSV to this file")
	original := fs.Bool("original", false, "use the original pessimistic merge (for comparison with §5.2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := (repro.AccuracyStudy{
		Cases:    repro.PaperAccuracyCases(),
		Reps:     repro.DefaultReps().Scale(*scale),
		Seed:     *seed,
		Improved: !*original,
		Exec:     newExec(),
	}).Run()
	if err != nil {
		return err
	}
	return emitTable(repro.RenderTable7(entries), *csvPath)
}

func cmdFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	reps := fs.Int("reps", 20, "repetitions per box")
	seed := fs.Uint64("seed", 20250706, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := repro.Figure1Exec(context.Background(), newExec(), *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(repro.RenderFigure(1, "schedbench exec time (ms), A64FX reserved vs w/o", series).Text())
	fmt.Println()
	fmt.Print(repro.RenderBoxPlot("box plots (shared axis)", series, 64))
	return nil
}

func cmdFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	reps := fs.Int("reps", 20, "repetitions per box")
	seed := fs.Uint64("seed", 20250706, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := repro.Figure2Exec(context.Background(), newExec(), *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(repro.RenderFigure(2, "Babelstream dot exec time (ms) vs threads", series).Text())
	fmt.Println()
	fmt.Print(repro.RenderBoxPlot("box plots (shared axis)", series, 64))
	return nil
}

func cmdShapeCheck(args []string) error {
	fs, scale, seed := scaleFlags("shapecheck")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var all []*repro.InjectionResult
	for _, w := range []string{"nbody", "babelstream", "minife"} {
		res, err := runInjectionStudy(w, *scale, *seed)
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	checks := repro.CheckInjectionShape(repro.AggregateChange(all))
	if err := repro.WriteChecks(os.Stdout, checks); err != nil {
		return err
	}
	for _, c := range checks {
		if !c.Pass {
			return fmt.Errorf("shape check failed: %s", c.Name)
		}
	}
	return nil
}
