package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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

// runOnce is repro.RunOnce for the single-run subcommands, honoring the
// global -obs and -timeline-out flags.
func runOnce(spec repro.Spec) (repro.Result, error) {
	if gObs || gTimelineOut != "" {
		spec.Obs = &obs.Options{Timeline: gTimelineOut != "", Reg: obsRegistry()}
	}
	res, err := repro.RunOnce(spec)
	if err == nil && gTimelineOut != "" {
		writeTimelineOut(res.Obs)
	}
	return res, err
}

// gWorlds is the process-wide warm-world pool: every study-running
// subcommand's executor shares it, so worlds built for one series are
// reset and reused by the next (lazily created like the obs registry).
var (
	gWorldsOnce sync.Once
	gWorlds     *repro.WorldPool
)

func worldPool() *repro.WorldPool {
	gWorldsOnce.Do(func() { gWorlds = repro.NewWorldPool() })
	return gWorlds
}

// newExec builds the executor every study-running subcommand shares,
// honoring the global -parallel, -v, -obs and -timeline-out flags.
func newExec() repro.Executor {
	e := repro.Executor{Parallelism: gParallel, Worlds: worldPool()}
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

// collectExec is newExec for the commands that hunt a worst case: under -v
// it also reports each collected rep ("collect k/N") to stderr.
func collectExec() repro.Executor {
	e := newExec()
	if gVerbose {
		e.OnRep = func(done, total int) {
			fmt.Fprintf(os.Stderr, "collect %d/%d\n", done, total)
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

// rejectDeadline fails when the -dl-* flags are set on a subcommand that
// has no single run spec to apply them to, instead of ignoring them.
func (c *commonFlags) rejectDeadline() error {
	if *c.dlRuntime != 0 || *c.dlPeriod != 0 {
		return fmt.Errorf("-dl-runtime-ns/-dl-period-ns are not supported here (run, baseline, inject, fig3 and submit apply them)")
	}
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
	res, err := runOnce(spec)
	if err != nil {
		return err
	}
	fmt.Printf("exec time: %.6f s\n", res.ExecTime.Seconds())
	if gVerbose {
		fmt.Printf("kernel: ctxswitches=%d requests=%d pool-misses=%d\n",
			res.ContextSwitches, res.Requests, res.PoolMisses)
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
	times, err := newExec().SeriesTimes(context.Background(), spec, *reps)
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
	if err := c.rejectDeadline(); err != nil {
		return err
	}
	p, _, strat, err := c.resolve()
	if err != nil {
		return err
	}
	cfg, pr, err := repro.BuildConfigExec(context.Background(), collectExec(), p, *c.workload,
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
	times, err := newExec().SeriesTimes(context.Background(), spec, *reps)
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
