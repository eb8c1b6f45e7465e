package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// table3-nbody: the paper's own product, one injection study per operation.
// ---------------------------------------------------------------------------

// table3Env runs Table 3's injection study for nbody on the two desktop
// platforms at the CI rep counts of the repository's bench harness.
type table3Env struct {
	c     *config
	plats []*platform.Platform
	reps  experiment.RepCounts
	// Of the last traced pass: its kernel counters and its first study.
	reg   *obs.Registry
	first *experiment.InjectionResult
}

func setupTable3(_ context.Context, c *config) (env, error) {
	e := &table3Env{c: c, reps: experiment.RepCounts{Collect: 60, Baseline: 8, Inject: 8}}
	if c.tiny {
		e.reps = experiment.RepCounts{Collect: 8, Baseline: 2, Inject: 2}
	}
	for _, name := range []string{machine.Intel9700KF, machine.AMD9950X3D} {
		p, err := platform.New(name)
		if err != nil {
			return nil, err
		}
		e.plats = append(e.plats, p)
	}
	return e, nil
}

// warm runs one rep of the study's first baseline cell.
func (e *table3Env) warm(context.Context) error {
	w, err := e.plats[0].WorkloadSpec("nbody")
	if err != nil {
		return err
	}
	_, err = experiment.RunOnce(experiment.Spec{Platform: e.plats[0], Workload: w, Model: "omp", Strategy: mitigate.Rm, Seed: e.c.seed})
	return err
}

// studySeeds is how many study seeds an untraced run cycles through:
// study i runs at seed+i%studySeeds. How much work a study does depends on
// its seed, so averaging over two seeds steadies the run's figures, and
// every seed still runs at least twice in a full-length run, so its
// digests can be compared.
const studySeeds = 2

func (e *table3Env) study(i int, exec experiment.Executor) experiment.InjectionStudy {
	return experiment.InjectionStudy{
		Platforms: e.plats, Workload: "nbody", Reps: e.reps, Seed: e.c.seed + uint64(i%studySeeds), Improved: true,
		ConfigsPerPlatform: map[string]int{machine.Intel9700KF: 2, machine.AMD9950X3D: 1},
		Exec:               exec,
	}
}

func (e *table3Env) pass(ctx context.Context, stop stopRule, tr *tracer) ([]*op, error) {
	var ops []*op
	for i := 0; stop.more(i); i++ {
		var exec experiment.Executor
		root := tr.id()
		start := time.Now()
		if tr != nil {
			e.reg = obs.NewRegistry()
			exec.Obs = &experiment.ObsOptions{Reg: e.reg}
			last := start
			exec.OnCell = func(_, _ int, label string) {
				now := time.Now()
				name, cat := "config_cell", "experiment"
				if strings.HasPrefix(label, "inject") {
					name, cat = "inject_cell", "omprt"
					if strings.Contains(label, " SYCL") {
						cat = "syclrt"
					}
				}
				tr.add(span{parent: root, name: name, cat: cat, label: label, start: last, end: now})
				last = now
			}
		}
		st := e.study(i, exec)
		res, err := st.RunContext(ctx)
		o := &op{class: "miss", key: strconv.FormatUint(st.Seed, 10), start: start, end: time.Now(), err: err}
		tr.add(span{id: root, name: "study", cat: "experiment", start: o.start, end: o.end})
		if err == nil {
			o.val = res
			o.out, o.err = studyDigest(res)
		}
		ops = append(ops, o)
		if tr != nil && i == 0 && err == nil {
			e.first = res
		}
	}
	return ops, nil
}

// studyDigest is the SHA-256 of a study's canonical JSON encoding.
func studyDigest(res *experiment.InjectionResult) ([]byte, error) {
	enc, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(enc)
	return sum[:], nil
}

// pipelineRepeats is how many times the trace/core stages are timed.
const pipelineRepeats = 5

// timePipeline re-runs the first config pipeline (Intel, OpenMP roaming,
// config #1) of res, the study at the run's seed, and times the trace and
// core stages on its traces. The regenerated config must equal the one the
// study injected.
func (e *table3Env) timePipeline(ctx context.Context, tr *tracer, res *experiment.InjectionResult) error {
	_, pr, err := experiment.BuildConfigExec(ctx, experiment.Executor{}, e.plats[0], "nbody",
		experiment.ConfigSource{Model: "omp", Strategy: mitigate.Rm, ID: 1}, e.reps.Collect, true, e.c.seed)
	if err != nil {
		return err
	}
	var cfg *core.Config
	for i := 0; i < pipelineRepeats; i++ {
		t0 := time.Now()
		profile := trace.BuildProfile(pr.Traces)
		t1 := time.Now()
		refined := core.Refine(pr.Worst, profile)
		t2 := time.Now()
		cfg = core.Generate(refined, true)
		t3 := time.Now()
		tr.add(span{name: "profile", cat: "trace", start: t0, end: t1})
		tr.add(span{name: "refine", cat: "core", start: t1, end: t2})
		tr.add(span{name: "generate", cat: "core", start: t2, end: t3})
	}
	got, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	want, err := json.Marshal(res.Configs[machine.Intel9700KF][0])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("regenerated config #1 differs from the one the study injected")
	}
	return nil
}

// layers also times the trace and core stages, after the pass so that its
// host figures do not include them.
func (e *table3Env) layers(ctx context.Context, m map[string]float64, p passStats, tr *tracer) error {
	if e.first != nil {
		if err := e.timePipeline(ctx, tr, e.first); err != nil {
			return err
		}
	}
	ctr, err := counters(e.reg)
	if err != nil {
		return err
	}
	kernelLayers(m, ctr, p)
	m["omprt.cell_ms_p50"] = tr.p50("inject_cell", "omprt")
	m["syclrt.cell_ms_p50"] = tr.p50("inject_cell", "syclrt")
	m["experiment.config_cell_ms_p50"] = tr.p50("config_cell", "")
	m["experiment.inject_cell_ms_p50"] = tr.p50("inject_cell", "")
	m["trace.profile_ms"] = tr.p50("profile", "trace")
	m["core.refine_ms"] = tr.p50("refine", "core")
	m["core.generate_ms"] = tr.p50("generate", "core")
	return nil
}

func (e *table3Env) close() {}

// verifyTable3 checks that every study has the same digest as the first
// study at its seed, and that each passes the paper's shape checks.
func verifyTable3(_ context.Context, c *config, ops []*op, chk *checker) error {
	digests := map[string][]byte{}
	for i, o := range ops {
		if o.err != nil {
			chk.record(false, "study %d: %v", i, o.err)
			continue
		}
		got := tampered(c, o.out)
		want, ok := digests[o.key]
		if !ok {
			want = got
			digests[o.key] = got
			fmt.Fprintf(chk.out, "study digest at seed %s: %x\n", o.key, want)
		}
		var failed []string
		for _, s := range report.CheckInjectionShape(experiment.AggregateChange(
			[]*experiment.InjectionResult{o.val.(*experiment.InjectionResult)})) {
			if !s.Pass {
				failed = append(failed, fmt.Sprintf("%s (got %s)", s.Name, s.Got))
			}
		}
		switch {
		case !bytes.Equal(got, want):
			chk.record(false, "study %d: digest %x, want %x", i, got, want)
		case len(failed) > 0:
			chk.record(false, "study %d: shape checks failed: %s", i, strings.Join(failed, "; "))
		default:
			chk.record(true, "")
		}
	}
	return nil
}

// tampered applies the test hook, if any, to a copy of out.
func tampered(c *config, out []byte) []byte {
	if c.tamper == nil {
		return out
	}
	return c.tamper(append([]byte(nil), out...))
}

// ---------------------------------------------------------------------------
// analyze-logwriter: the frozen differential bottleneck analysis.
// ---------------------------------------------------------------------------

// analysisDir holds the frozen analysis example: its spec and artifact.
const analysisDir = "results/analysis-io"

type analyzeEnv struct {
	c      *config
	spec   analyze.Spec // at the run's seed
	frozen analyze.Spec // as frozen
	want   []byte       // the frozen artifact
	// Of the last traced pass: its kernel counters and its last sweep.
	reg  *obs.Registry
	last *op
}

func setupAnalyze(_ context.Context, c *config) (env, error) {
	raw, err := os.ReadFile(filepath.Join(c.root, analysisDir, "spec.json"))
	if err != nil {
		return nil, err
	}
	e := &analyzeEnv{c: c}
	if err := json.Unmarshal(raw, &e.frozen); err != nil {
		return nil, fmt.Errorf("%s/spec.json: %w", analysisDir, err)
	}
	if e.want, err = os.ReadFile(filepath.Join(c.root, analysisDir, "artifact.json")); err != nil {
		return nil, err
	}
	e.spec = e.frozen
	e.spec.Seed = c.seed
	if c.tiny {
		e.spec.Reps = 2
		e.spec.Ladder = []float64{1, 4}
	}
	if err := e.spec.Validate(0); err != nil {
		return nil, err
	}
	return e, nil
}

// warm runs one rep of the sweep's base cell.
func (e *analyzeEnv) warm(context.Context) error {
	base, err := e.spec.Resolve()
	if err != nil {
		return err
	}
	_, err = experiment.RunOnce(base)
	return err
}

func (e *analyzeEnv) sweep(ctx context.Context, spec analyze.Spec, tr *tracer) *op {
	var exec experiment.Executor
	root := tr.id()
	start := time.Now()
	if tr != nil {
		e.reg = obs.NewRegistry()
		exec.Obs = &experiment.ObsOptions{Reg: e.reg}
		// OnRep calls are serialized; a cell ends every Reps completions.
		last := start
		exec.OnRep = func(done, _ int) {
			if done%spec.Reps != 0 {
				return
			}
			now := time.Now()
			tr.add(span{parent: root, name: "cell", cat: "analyze", start: last, end: now})
			last = now
		}
	}
	out, err := analyze.Run(ctx, exec, spec)
	o := &op{class: "miss", start: start, end: time.Now(), err: err}
	tr.add(span{id: root, name: "sweep", cat: "analyze", start: o.start, end: o.end})
	if err == nil {
		o.val = out.Artifact
		o.out, o.err = out.Artifact.Encode()
	}
	return o
}

func (e *analyzeEnv) pass(ctx context.Context, stop stopRule, tr *tracer) ([]*op, error) {
	var ops []*op
	for i := 0; stop.more(i); i++ {
		o := e.sweep(ctx, e.spec, tr)
		ops = append(ops, o)
		if tr != nil && o.err == nil {
			e.last = o
		}
	}
	return ops, nil
}

// timeAssemble re-assembles the artifact from its own curves and times it;
// the re-encoded bytes must equal the sweep's.
func timeAssemble(tr *tracer, o *op) error {
	art := o.val.(*analyze.Artifact)
	for i := 0; i < pipelineRepeats; i++ {
		start := time.Now()
		again, err := analyze.Assemble(art.SpecHash, art.ModelVersion, art.Spec, art.Curves)
		end := time.Now()
		if err != nil {
			return err
		}
		tr.add(span{name: "assemble", cat: "analyze", start: start, end: end})
		enc, err := again.Encode()
		if err != nil {
			return err
		}
		if !bytes.Equal(enc, o.out) {
			return fmt.Errorf("re-assembled artifact differs from the sweep's")
		}
	}
	return nil
}

// layers also times Assemble, after the pass so that its host figures do
// not include it.
func (e *analyzeEnv) layers(_ context.Context, m map[string]float64, p passStats, tr *tracer) error {
	if e.last != nil {
		if err := timeAssemble(tr, e.last); err != nil {
			return err
		}
	}
	ctr, err := counters(e.reg)
	if err != nil {
		return err
	}
	kernelLayers(m, ctr, p)
	m["analyze.cell_ms_p50"] = tr.p50("cell", "analyze")
	m["analyze.assemble_ms"] = tr.p50("assemble", "analyze")
	return nil
}

func (e *analyzeEnv) close() {}

// verifyAnalyze checks that every sweep at the run's seed is byte-equal to
// the first, then runs the frozen spec once more and compares it with the
// frozen artifact byte for byte.
func verifyAnalyze(ctx context.Context, c *config, ops []*op, chk *checker) error {
	var want []byte
	for i, o := range ops {
		if o.err != nil {
			chk.record(false, "sweep %d: %v", i, o.err)
			continue
		}
		got := tampered(c, o.out)
		if want == nil {
			want = got
		}
		chk.record(bytes.Equal(got, want), "sweep %d: artifact differs from the first sweep at the same seed", i)
	}
	ev, err := setupAnalyze(ctx, c)
	if err != nil {
		return err
	}
	e := ev.(*analyzeEnv)
	o := e.sweep(ctx, e.frozen, nil)
	if o.err != nil {
		chk.record(false, "frozen sweep: %v", o.err)
		return nil
	}
	chk.record(bytes.Equal(tampered(c, o.out), e.want),
		"frozen sweep: artifact differs from %s/artifact.json", analysisDir)
	return nil
}
