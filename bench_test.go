package repro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out. Each benchmark regenerates its table/figure data and prints the
// rendered rows once (the first iteration), then reports summary values as
// custom metrics.
//
// Repetition counts are scaled-down defaults (the paper uses 1000 baseline
// and 200 injection reps); set REPRO_SCALE (e.g. "4") to multiply them, or
// use cmd/noiselab for full control. Results are cached across benchmarks
// within one `go test -bench` process so Table 6 reuses Tables 3-5.
//
// Repetitions fan out over the deterministic parallel execution layer
// (experiment.Executor): results are bit-identical at any worker count.
// Set REPRO_PARALLEL (e.g. "8") to bound the pool; it defaults to
// GOMAXPROCS. BenchmarkParallelSpeedup reports the measured
// sequential-vs-parallel ratio on this machine.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/parmodel"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

const benchSeed = 20250706

func benchScale() float64 {
	if v := os.Getenv("REPRO_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 1.0
}

// benchReps are deliberately small so `go test -bench=.` completes in
// minutes; REPRO_SCALE raises them toward the paper's counts.
func benchReps() RepCounts {
	return RepCounts{Collect: 60, Baseline: 8, Inject: 8}.Scale(benchScale())
}

var (
	injMu    sync.Mutex
	injCache = map[string]*InjectionResult{}
)

func printTable(b *testing.B, t *report.Table) {
	b.Helper()
	fmt.Printf("\n%s\n", t.Text())
}

func desktopPlatforms(b *testing.B) []*Platform {
	b.Helper()
	var out []*Platform
	for _, name := range []string{Intel9700KF, AMD9950X3D} {
		p, err := platform.New(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// injectionResult computes (or returns cached) Tables-3/4/5 data for a
// workload.
func injectionResult(b *testing.B, workload string) *InjectionResult {
	b.Helper()
	injMu.Lock()
	defer injMu.Unlock()
	if res, ok := injCache[workload]; ok {
		return res
	}
	// Config counts per platform follow the paper's rows: two alternate
	// configs on Intel for every workload; AMD gets one (two for MiniFE).
	cfgPer := map[string]int{Intel9700KF: 2, AMD9950X3D: 1}
	if workload == "minife" {
		cfgPer[AMD9950X3D] = 2
	}
	st := experiment.InjectionStudy{
		Platforms:          desktopPlatforms(b),
		Workload:           workload,
		Reps:               benchReps(),
		Seed:               benchSeed,
		Improved:           true,
		ConfigsPerPlatform: cfgPer,
	}
	res, err := st.RunContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	injCache[workload] = res
	return res
}

// BenchmarkTable1 regenerates Table 1: tracing overhead per workload.
func BenchmarkTable1(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	reps := benchReps().Baseline
	for i := 0; i < b.N; i++ {
		rows, err := TracingOverheadExec(context.Background(), Executor{}, p, []string{"nbody", "babelstream", "minife"}, reps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, RenderTable1(rows))
			var worst float64
			for _, r := range rows {
				if r.IncreasePct > worst {
					worst = r.IncreasePct
				}
			}
			b.ReportMetric(worst, "max-overhead-%")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: average baseline s.d. (ms) per model
// and strategy across workloads and platforms.
func BenchmarkTable2(b *testing.B) {
	reps := benchReps().Baseline
	for i := 0; i < b.N; i++ {
		var results []*BaselineResult
		for _, p := range desktopPlatforms(b) {
			for _, w := range []string{"nbody", "babelstream", "minife"} {
				res, err := (experiment.BaselineStudy{
					Platform: p, Workload: w, Reps: reps,
					Seed: benchSeed, SMT: false,
				}).RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, res)
			}
		}
		if i == 0 {
			printTable(b, RenderTable2(results))
		}
	}
}

func benchInjectionTable(b *testing.B, num int, workload string) {
	for i := 0; i < b.N; i++ {
		if i > 0 {
			injMu.Lock()
			delete(injCache, workload)
			injMu.Unlock()
		}
		res := injectionResult(b, workload)
		if i == 0 {
			printTable(b, RenderInjectionTable(num, res))
			agg := AggregateChange([]*InjectionResult{res})
			b.ReportMetric(agg["omp"][0], "omp-Rm-change-%")
			b.ReportMetric(agg["sycl"][0], "sycl-Rm-change-%")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (N-body under injection).
func BenchmarkTable3(b *testing.B) { benchInjectionTable(b, 3, "nbody") }

// BenchmarkTable4 regenerates Table 4 (Babelstream under injection).
func BenchmarkTable4(b *testing.B) { benchInjectionTable(b, 4, "babelstream") }

// BenchmarkTable5 regenerates Table 5 (MiniFE under injection).
func BenchmarkTable5(b *testing.B) { benchInjectionTable(b, 5, "minife") }

// BenchmarkTable6 regenerates Table 6: the aggregate relative performance
// change across Tables 3-5, plus the paper's headline shape checks.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var all []*InjectionResult
		for _, w := range []string{"nbody", "babelstream", "minife"} {
			all = append(all, injectionResult(b, w))
		}
		agg := AggregateChange(all)
		if i == 0 {
			printTable(b, RenderTable6(agg))
			checks := CheckInjectionShape(agg)
			if err := WriteChecks(os.Stdout, checks); err != nil {
				b.Fatal(err)
			}
			pass := 0
			for _, c := range checks {
				if c.Pass {
					pass++
				}
			}
			b.ReportMetric(float64(pass), "shape-checks-passed")
			b.ReportMetric(float64(len(checks)), "shape-checks-total")
		}
	}
}

// BenchmarkTable7 regenerates Table 7: replay accuracy for the paper's ten
// worst-case trace configurations.
func BenchmarkTable7(b *testing.B) {
	reps := benchReps()
	for i := 0; i < b.N; i++ {
		entries, err := (AccuracyStudy{
			Cases:    PaperAccuracyCases(),
			Reps:     reps,
			Seed:     benchSeed,
			Improved: true,
		}).RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, RenderTable7(entries))
			b.ReportMetric(MeanAccuracy(entries), "mean-accuracy-%")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1: schedbench variability across
// schedule:chunk combinations on A64FX with vs without reserved OS cores.
func BenchmarkFigure1(b *testing.B) {
	reps := benchReps().Baseline
	for i := 0; i < b.N; i++ {
		series, err := Figure1Exec(context.Background(), Executor{}, reps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, RenderFigure(1, "schedbench exec time (ms), reserved vs w/o", series))
			b.ReportMetric(maxSDOf(series, "A64FX:w/o"), "wo-max-sd-ms")
			b.ReportMetric(maxSDOf(series, "A64FX:reserved"), "rsv-max-sd-ms")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: Babelstream dot-kernel variability
// vs thread count on the two A64FX systems.
func BenchmarkFigure2(b *testing.B) {
	reps := benchReps().Baseline
	for i := 0; i < b.N; i++ {
		series, err := Figure2Exec(context.Background(), Executor{}, reps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, RenderFigure(2, "Babelstream dot exec time (ms) vs threads", series))
			b.ReportMetric(maxSDOf(series, "A64FX:w/o"), "wo-max-sd-ms")
			b.ReportMetric(maxSDOf(series, "A64FX:reserved"), "rsv-max-sd-ms")
		}
	}
}

func maxSDOf(series []FigureSeries, system string) float64 {
	var worst float64
	for _, s := range series {
		if s.System == system && s.SD > worst {
			worst = s.SD
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices called out in DESIGN.md §4)
// ---------------------------------------------------------------------------

// ablationSetup builds one worst-case config on Intel/nbody for ablations.
func ablationSetup(b *testing.B, improved bool) (*Platform, Workload, *Config, *PipelineResult) {
	b.Helper()
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		b.Fatal(err)
	}
	cfg, pr, err := BuildConfigExec(context.Background(), Executor{}, p, "nbody",
		ConfigSource{Model: "omp", Strategy: Rm, ID: 1},
		benchReps().Collect, improved, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return p, w, cfg, pr
}

func meanInjected(b *testing.B, spec Spec, reps int) float64 {
	b.Helper()
	times, _, err := Executor{}.Series(context.Background(), spec, reps)
	if err != nil {
		b.Fatal(err)
	}
	return stats.SummarizeTimes(times).Mean / 1000
}

// BenchmarkAblationMerge compares the original pessimistic overlap merge
// with the improved class-separated merge (§5.2's accuracy fix).
func BenchmarkAblationMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pOrig, w, cfgOrig, prOrig := ablationSetup(b, false)
		_, _, cfgImpr, _ := ablationSetup(b, true)
		reps := benchReps().Inject
		spec := Spec{Platform: pOrig, Workload: w, Model: "omp", Strategy: Rm, Seed: benchSeed + 1}
		spec.Inject = cfgOrig
		orig := meanInjected(b, spec, reps)
		spec.Inject = cfgImpr
		impr := meanInjected(b, spec, reps)
		anomaly := prOrig.Worst.ExecTime.Seconds()
		accOrig, _ := experiment.Accuracy(orig, anomaly)
		accImpr, _ := experiment.Accuracy(impr, anomaly)
		if i == 0 {
			fmt.Printf("\nAblation merge: anomaly=%.3fs original=%.3fs (acc %.2f%%) improved=%.3fs (acc %.2f%%)\n",
				anomaly, orig, accOrig*100, impr, accImpr*100)
			b.ReportMetric(accOrig*100, "orig-accuracy-%")
			b.ReportMetric(accImpr*100, "improved-accuracy-%")
		}
	}
}

// BenchmarkAblationDelta compares injecting the refined delta config
// against replaying the raw worst-case trace (double-counting the inherent
// noise, which the refinement of §4.2 exists to avoid).
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, w, refinedCfg, pr := ablationSetup(b, true)
		rawCfg := Generate(pr.Worst, true)
		reps := benchReps().Inject
		anomaly := pr.Worst.ExecTime.Seconds()
		spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: Rm, Seed: benchSeed + 2}
		spec.Inject = refinedCfg
		refined := meanInjected(b, spec, reps)
		spec.Inject = rawCfg
		raw := meanInjected(b, spec, reps)
		accRefined, _ := experiment.Accuracy(refined, anomaly)
		accRaw, _ := experiment.Accuracy(raw, anomaly)
		if i == 0 {
			fmt.Printf("\nAblation delta: anomaly=%.3fs refined=%.3fs (acc %.2f%%) raw-worst=%.3fs (acc %.2f%%)\n",
				anomaly, refined, accRefined*100, raw, accRaw*100)
			b.ReportMetric(accRefined*100, "refined-accuracy-%")
			b.ReportMetric(accRaw*100, "raw-accuracy-%")
		}
	}
}

// BenchmarkAblationInjectorAffinity compares unpinned injector processes
// (the paper's design) against pinning each injector to its recorded CPU.
func BenchmarkAblationInjectorAffinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, w, cfg, _ := ablationSetup(b, true)
		reps := benchReps().Inject
		spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: RmHK,
			Seed: benchSeed + 3, Inject: cfg}
		roam := meanInjected(b, spec, reps)
		spec.PinInjectors = true
		pinned := meanInjected(b, spec, reps)
		if i == 0 {
			fmt.Printf("\nAblation injector affinity (RmHK): roaming=%.3fs pinned=%.3fs\n", roam, pinned)
			b.ReportMetric(roam, "roaming-sec")
			b.ReportMetric(pinned, "pinned-sec")
		}
	}
}

// BenchmarkAblationWaitPolicy compares OpenMP active (spinning) vs passive
// barrier waiting under injection.
func BenchmarkAblationWaitPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, w, cfg, _ := ablationSetup(b, true)
		reps := benchReps().Inject
		active := parmodel.OpenMP()
		passive := active
		passive.ActiveWait = false
		spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: Rm,
			Seed: benchSeed + 4, Inject: cfg}
		spec.OMP = &active
		act := meanInjected(b, spec, reps)
		spec.OMP = &passive
		pas := meanInjected(b, spec, reps)
		if i == 0 {
			fmt.Printf("\nAblation wait policy under injection: active=%.3fs passive=%.3fs\n", act, pas)
			b.ReportMetric(act, "active-sec")
			b.ReportMetric(pas, "passive-sec")
		}
	}
}

// BenchmarkAblationBalancer compares roaming with and without periodic idle
// balancing (migration is what lets Rm shed noise-delayed threads).
func BenchmarkAblationBalancer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, w, cfg, _ := ablationSetup(b, true)
		reps := benchReps().Inject
		spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: RmHK,
			Seed: benchSeed + 5, Inject: cfg}
		with := meanInjected(b, spec, reps)
		noBal, err := platform.New(Intel9700KF)
		if err != nil {
			b.Fatal(err)
		}
		noBal.SchedOpt.BalanceInterval = 0
		spec.Platform = noBal
		without := meanInjected(b, spec, reps)
		if i == 0 {
			fmt.Printf("\nAblation balancer (RmHK under injection): with=%.3fs without=%.3fs\n", with, without)
			b.ReportMetric(with, "balanced-sec")
			b.ReportMetric(without, "unbalanced-sec")
		}
	}
}

// ---------------------------------------------------------------------------
// Execution-layer speedup
// ---------------------------------------------------------------------------

// BenchmarkParallelSpeedup measures the wall-clock of one baseline series
// sequentially (parallelism 1) and over the default worker pool
// (REPRO_PARALLEL or GOMAXPROCS), verifies the outputs are bit-identical,
// and reports the speedup. On an N-core machine the ratio approaches the
// worker count; on a single core it stays ~1.
func BenchmarkParallelSpeedup(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: Rm,
		Seed: benchSeed, Tracing: true}
	reps := benchReps().Baseline * 2
	par := Executor{}
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		seqT, _, err := Executor{Parallelism: 1}.Series(context.Background(), spec, reps)
		if err != nil {
			b.Fatal(err)
		}
		seqDur := time.Since(t0)
		t0 = time.Now()
		parT, _, err := par.Series(context.Background(), spec, reps)
		if err != nil {
			b.Fatal(err)
		}
		parDur := time.Since(t0)
		for j := range seqT {
			if seqT[j] != parT[j] {
				b.Fatalf("rep %d: sequential %v != parallel %v", j, seqT[j], parT[j])
			}
		}
		if i == 0 {
			fmt.Printf("\nParallel speedup: %d reps, %d workers: sequential=%v parallel=%v (%.2fx)\n",
				reps, par.Workers(), seqDur.Round(time.Millisecond),
				parDur.Round(time.Millisecond), float64(seqDur)/float64(parDur))
			b.ReportMetric(float64(seqDur)/float64(parDur), "speedup-x")
			b.ReportMetric(float64(par.Workers()), "workers")
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates
// ---------------------------------------------------------------------------

// BenchmarkSimulatedRun measures the wall cost of one simulated traced
// execution (Intel, nbody, OMP, roaming).
func BenchmarkSimulatedRun(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := RunOnce(Spec{
			Platform: p, Workload: w, Model: "omp", Strategy: Rm,
			Seed: uint64(i), Tracing: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Kernel counters of one run: task requests served and dispatches
	// performed.
	b.ReportMetric(float64(last.ContextSwitches), "ctxsw/run")
	b.ReportMetric(float64(last.InlineDispatches), "inline/run")
}

// BenchmarkSimulatedRunBatch is BenchmarkSimulatedRun through a pooled
// world: one warm world whose engine and scheduler are reset to their
// construction snapshots between reps, instead of a fresh pair per run.
// The ns/op gap to BenchmarkSimulatedRun is the per-rep construction cost
// pooling saves; outputs are byte-identical (the setup re-verifies one seed
// against RunOnce, the golden fixtures pin the full matrix).
func BenchmarkSimulatedRunBatch(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		b.Fatal(err)
	}
	spec := func(seed uint64) Spec {
		return Spec{Platform: p, Workload: w, Model: "omp", Strategy: Rm,
			Seed: seed, Tracing: true}
	}
	exec := Executor{Parallelism: 1, Worlds: NewWorldPool()}
	// Warm the pool outside the timer so the measured steady state is the
	// reused-world rep, not the one-time world construction, and spot-check
	// byte-identity of a warm rep against a fresh world.
	warm, _, err := exec.Series(context.Background(), spec(benchSeed), 1)
	if err != nil {
		b.Fatal(err)
	}
	fresh, err := RunOnce(spec(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	if warm[0] != fresh.ExecTime {
		b.Fatalf("pooled rep %v != fresh rep %v", warm[0], fresh.ExecTime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Series(context.Background(), spec(uint64(i)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSweep prices world pooling on a realistic multi-series
// flow: a small intensity sweep whose config hunt, per-strategy baselines,
// and injected points all share one warm-world pool — exactly the many
// short series the pool amortizes across. The setup runs the same sweep
// through fresh worlds (experiment.FreshWorlds, the determinism
// reference), verifies the points are identical, and reports the
// wall-clock ratio as speedup-x; the timed loop then measures the pooled
// sweep.
func BenchmarkSnapshotSweep(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(worlds *WorldPool) ([]IntensityPoint, error) {
		return IntensitySweep{
			Platform:   p,
			Workload:   "nbody",
			Model:      "omp",
			Strategies: []Strategy{Rm, RmHK},
			Factors:    []float64{1, 2},
			Reps:       RepCounts{Collect: 20, Baseline: 4, Inject: 4},
			Seed:       benchSeed,
			Exec:       Executor{Parallelism: 1, Worlds: worlds},
		}.RunContext(context.Background())
	}
	t0 := time.Now()
	fresh, err := sweep(experiment.FreshWorlds())
	if err != nil {
		b.Fatal(err)
	}
	freshDur := time.Since(t0)
	t0 = time.Now()
	pooled, err := sweep(NewWorldPool())
	if err != nil {
		b.Fatal(err)
	}
	pooledDur := time.Since(t0)
	if fmt.Sprint(fresh) != fmt.Sprint(pooled) {
		b.Fatalf("pooled sweep diverged from fresh worlds:\nfresh:  %v\npooled: %v", fresh, pooled)
	}
	b.ReportMetric(float64(freshDur)/float64(pooledDur), "speedup-x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(NewWorldPool()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedRunObs is BenchmarkSimulatedRun with the passive
// observability recorder attached in each of its three modes. Compare the
// "off" case against BenchmarkSimulatedRun to verify the disabled path
// (a nil observer check per emission site) costs <=2%; "counters" and
// "timeline" price the enabled modes. `make bench-obs` records the four
// as BENCH_obs.json.
func BenchmarkSimulatedRunObs(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts func() *obs.Options
	}{
		{"off", func() *obs.Options { return nil }},
		{"counters", func() *obs.Options { return &obs.Options{Reg: obs.NewRegistry()} }},
		{"timeline", func() *obs.Options { return &obs.Options{Timeline: true} }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := RunOnce(Spec{
					Platform: p, Workload: w, Model: "omp", Strategy: Rm,
					Seed: uint64(i), Tracing: true, Obs: m.opts(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Obs != nil {
					events = res.Obs.Total()
				}
			}
			if events > 0 {
				b.ReportMetric(float64(events), "obs-events/run")
			}
		})
	}
}

// BenchmarkPipeline measures stages 1+2 end to end on a tiny machine.
func BenchmarkPipeline(b *testing.B) {
	p, err := platform.New(machine.TinyTest)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.ByName("nbody", "small")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := Pipeline{
			Spec: Spec{Platform: p, Workload: w, Model: "omp",
				Strategy: mitigate.Rm, Seed: uint64(i)},
			CollectRuns: 10,
			Improved:    true,
		}
		if _, err := pl.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionMemoryNoise exercises the §7 future-work extension:
// memory-interference injection. Unlike CPU-occupation noise, memory noise
// degrades a bandwidth-bound workload even when housekeeping cores are
// available to absorb it, because machine bandwidth is a global resource —
// quantifying the limitation the paper's §6 acknowledges for its
// CPU-occupation-only injector.
func BenchmarkExtensionMemoryNoise(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	w, err := p.WorkloadSpec("babelstream")
	if err != nil {
		b.Fatal(err)
	}
	reps := benchReps().Inject
	for i := 0; i < b.N; i++ {
		base := meanInjected(b, Spec{Platform: p, Workload: w, Model: "omp",
			Strategy: RmHK2, Seed: benchSeed + 6}, reps)
		memCfg, err := (core.MemoryNoiseSpec{
			Window:     4 * 1e9, // 4 s, beyond the run
			Workers:    2,
			Period:     20 * 1e6, // 20 ms
			BurstBytes: 200e6,    // ~10 GB/s of extra traffic
		}).Build()
		if err != nil {
			b.Fatal(err)
		}
		memNoisy := meanInjected(b, Spec{Platform: p, Workload: w, Model: "omp",
			Strategy: RmHK2, Seed: benchSeed + 6, Inject: memCfg}, reps)
		if i == 0 {
			fmt.Printf("\nExtension memory noise (babelstream, RmHK2): base=%.3fs mem-noisy=%.3fs (%+.1f%%)\n",
				base, memNoisy, (memNoisy/base-1)*100)
			b.ReportMetric(base, "base-sec")
			b.ReportMetric(memNoisy, "memnoise-sec")
		}
	}
}

// BenchmarkIntensitySweep quantifies the abstract's "mitigation
// effectiveness varies with noise intensity": the captured worst case is
// amplified and replayed across strategies, locating where housekeeping's
// baseline cost is overtaken by its worst-case protection.
func BenchmarkIntensitySweep(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		points, err := (IntensitySweep{
			Platform:   p,
			Workload:   "nbody",
			Strategies: []Strategy{Rm, RmHK, RmHK2},
			Factors:    []float64{0.5, 1, 2, 4, 8},
			Reps:       benchReps(),
			Seed:       benchSeed,
		}).RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nIntensity sweep (nbody, Intel): injected mean seconds\n")
			fmt.Printf("%-8s", "factor")
			for _, s := range []Strategy{Rm, RmHK, RmHK2} {
				fmt.Printf(" %8s", s.Name())
			}
			fmt.Println()
			for _, f := range []float64{0.5, 1, 2, 4, 8} {
				fmt.Printf("%-8.1f", f)
				for _, s := range []Strategy{Rm, RmHK, RmHK2} {
					for _, pt := range points {
						if pt.Factor == f && pt.Strategy == s {
							fmt.Printf(" %8.3f", pt.MeanSec)
						}
					}
				}
				fmt.Println()
			}
			cross := CrossoverFactor(points, Rm, RmHK)
			fmt.Printf("RmHK overtakes Rm at amplification factor: %.1f (0 = never in range)\n", cross)
			b.ReportMetric(cross, "hk-crossover-factor")
		}
	}
}

// BenchmarkRunlevel3 reproduces the paper's §5.1 verification: re-running
// baselines at runlevel 3 (GUI disabled) reduces variability without
// changing the trends.
func BenchmarkRunlevel3(b *testing.B) {
	p, err := platform.New(Intel9700KF)
	if err != nil {
		b.Fatal(err)
	}
	reps := benchReps().Baseline * 3
	for i := 0; i < b.N; i++ {
		rows, err := (experiment.RunlevelStudy{
			Platform:  p,
			Workloads: []string{"nbody", "babelstream", "minife"},
			Reps:      reps,
			Seed:      benchSeed,
		}).RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nRunlevel 3 vs 5 baseline variability (sd ms):\n")
			var sum float64
			for _, r := range rows {
				fmt.Printf("  %-12s rl5 sd=%6.2f  rl3 sd=%6.2f  (mean %7.1f -> %7.1f ms)\n",
					r.Workload, r.RL5.SD, r.RL3.SD, r.RL5.Mean, r.RL3.Mean)
				sum += r.SDReductionPct()
			}
			b.ReportMetric(sum/float64(len(rows)), "avg-sd-reduction-%")
		}
	}
}
