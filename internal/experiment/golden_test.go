package experiment

// The kernel golden test: pins the exact outputs of the simulation kernel —
// execution times, trace contents (as a fingerprint), and injector
// accounting — for a matrix of platforms, workloads, runtimes, strategies,
// and injection configurations, at executor parallelism 1 and 8. The
// fixture was generated before the fast-path kernel work (inline task
// programs, timer pooling, ordered run queues) landed; the test proves
// every optimization preserves bit-identical simulation behaviour.
//
// Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/experiment
// -run TestGoldenKernel — but only when a deliberate, reviewed behaviour
// change is intended.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const goldenPath = "testdata/golden_kernel.json"

type goldenCase struct {
	Name     string
	Platform string
	Workload string
	Small    bool // use the small workload preset instead of the platform's
	Model    string
	Strategy string
	Tracing  bool
	Inject   bool // build a config via the pipeline and replay it
	Throttle bool // enable RT throttling (fail-safe path coverage)
	Reps     int
	Seed     uint64
	// DLRuntimeNs/DLPeriodNs run workload threads under SCHED_DEADLINE
	// with this CBS reservation (0 = fair class).
	DLRuntimeNs int64
	DLPeriodNs  int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{Name: "tiny-nbody-omp-rm", Platform: "tiny-test", Workload: "nbody", Small: true,
			Model: "omp", Strategy: "Rm", Tracing: true, Reps: 3, Seed: 11},
		{Name: "tiny-nbody-sycl-rm", Platform: "tiny-test", Workload: "nbody", Small: true,
			Model: "sycl", Strategy: "Rm", Tracing: true, Reps: 3, Seed: 11},
		{Name: "tiny-stream-omp-hk", Platform: "tiny-test", Workload: "babelstream", Small: true,
			Model: "omp", Strategy: "RmHK2", Reps: 3, Seed: 12},
		{Name: "tiny-minife-sycl-hk", Platform: "tiny-test", Workload: "minife", Small: true,
			Model: "sycl", Strategy: "RmHK2", Tracing: true, Reps: 2, Seed: 13},
		{Name: "tiny-schedbench-omp-rm", Platform: "tiny-test", Workload: "schedbench", Small: true,
			Model: "omp", Strategy: "Rm", Reps: 2, Seed: 14},
		{Name: "tiny-nbody-omp-inject", Platform: "tiny-test", Workload: "nbody", Small: true,
			Model: "omp", Strategy: "Rm", Inject: true, Reps: 3, Seed: 15},
		{Name: "tiny-nbody-omp-inject-throttle", Platform: "tiny-test", Workload: "nbody", Small: true,
			Model: "omp", Strategy: "Rm", Inject: true, Throttle: true, Reps: 2, Seed: 16},
		{Name: "intel-nbody-omp-rm", Platform: "intel-9700kf", Workload: "nbody",
			Model: "omp", Strategy: "Rm", Tracing: true, Reps: 2, Seed: 21},
		{Name: "intel-stream-sycl-tphk", Platform: "intel-9700kf", Workload: "babelstream",
			Model: "sycl", Strategy: "TPHK", Reps: 2, Seed: 22},
		{Name: "amd-minife-omp-hk", Platform: "amd-9950x3d", Workload: "minife",
			Model: "omp", Strategy: "RmHK", Tracing: true, Reps: 2, Seed: 23},
		{Name: "a64fx-schedbench-omp-rm", Platform: "a64fx-noreserve", Workload: "schedbench",
			Model: "omp", Strategy: "Rm", Reps: 1, Seed: 24},
		// I/O-blocking workloads: device wait queues, completion IRQs, and
		// blocked-task wakeups must be as reproducible as pure compute.
		{Name: "tiny-svcloop-omp-rm", Platform: "tiny-test", Workload: "svcloop", Small: true,
			Model: "omp", Strategy: "Rm", Tracing: true, Reps: 3, Seed: 31},
		{Name: "tiny-svcloop-sycl-rm", Platform: "tiny-test", Workload: "svcloop", Small: true,
			Model: "sycl", Strategy: "Rm", Reps: 2, Seed: 32},
		{Name: "tiny-logwriter-omp-inject", Platform: "tiny-test", Workload: "logwriter", Small: true,
			Model: "omp", Strategy: "Rm", Inject: true, Reps: 2, Seed: 33},
		{Name: "tiny-logwriter-omp-inject-throttle", Platform: "tiny-test", Workload: "logwriter",
			Small: true, Model: "omp", Strategy: "Rm", Inject: true, Throttle: true, Reps: 2, Seed: 34},
		// SCHED_DEADLINE: EDF dispatch, CBS budget timers, and throttle/
		// replenish cycles across world resets and executor parallelism.
		{Name: "tiny-svcloop-omp-deadline", Platform: "tiny-test", Workload: "svcloop", Small: true,
			Model: "omp", Strategy: "Rm", Tracing: true, Reps: 2, Seed: 35,
			DLRuntimeNs: 400_000, DLPeriodNs: 1_000_000},
		{Name: "tiny-nbody-omp-deadline", Platform: "tiny-test", Workload: "nbody", Small: true,
			Model: "omp", Strategy: "Rm", Reps: 2, Seed: 36,
			DLRuntimeNs: 800_000, DLPeriodNs: 1_000_000},
	}
}

// goldenRecord is the pinned outcome of one case.
type goldenRecord struct {
	Times       []int64 `json:"times_ns"`
	TraceHash   string  `json:"trace_hash,omitempty"`
	TraceEvents int     `json:"trace_events,omitempty"`
	InjectorNs  int64   `json:"injector_ns,omitempty"`
	InjectedAll bool    `json:"injected_all,omitempty"`
}

// fingerprintTraces hashes every field of every event of every trace, in
// order, so any change to what the kernel records is caught.
func fingerprintTraces(traces []*trace.Trace) (string, int) {
	h := fnv.New64a()
	n := 0
	for _, tr := range traces {
		fmt.Fprintf(h, "%s/%s/%s/%s/%d/%d\n", tr.Platform, tr.Workload, tr.Model,
			tr.Strategy, tr.Seed, tr.ExecTime)
		for _, e := range tr.Events {
			fmt.Fprintf(h, "%d %d %s %d %d\n", e.CPU, e.Class, e.Source, e.Start, e.Duration)
			n++
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), n
}

func (c goldenCase) spec(t *testing.T) Spec {
	t.Helper()
	p, err := platform.New(c.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if c.Throttle {
		p.SchedOpt.RTThrottle = true
	}
	var w workloads.Workload
	if c.Small {
		w, err = workloads.ByName(c.Workload, "small")
	} else {
		w, err = p.WorkloadSpec(c.Workload)
	}
	if err != nil {
		t.Fatal(err)
	}
	strat, err := mitigate.Parse(c.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Platform: p, Workload: w, Model: c.Model, Strategy: strat,
		Seed: c.Seed, Tracing: c.Tracing,
		DLRuntime: sim.Time(c.DLRuntimeNs), DLPeriod: sim.Time(c.DLPeriodNs)}
}

// poolRunner returns a RunOnce equivalent that executes every run in a
// world drawn from pool: under FreshWorlds a new world per run, under a
// recycling pool a warm world reset after a previous run whenever one is
// idle. Golden tests drive both to prove a warm world is byte-identical to
// a fresh one.
func poolRunner(pool *WorldPool) func(Spec) (Result, error) {
	return func(s Spec) (Result, error) {
		plan, err := mitigate.Apply(s.Strategy, s.Platform.Topo)
		if err != nil {
			return Result{}, err
		}
		w := pool.get(worldKeyFor(s))
		res, err := w.run(s, plan, s.compile(plan))
		pool.put(w)
		return res, err
	}
}

// runGoldenCase executes one case at the given parallelism, every run —
// the pipeline's too, for injection cases — drawing its world from pool.
// With a non-nil reg the passive observability recorder is attached to
// every run, counting into reg — the fixture must still match exactly,
// proving observability cannot perturb the kernel.
func runGoldenCase(t *testing.T, c goldenCase, parallelism int, reg *obs.Registry, pool *WorldPool) goldenRecord {
	t.Helper()
	spec := c.spec(t)
	if reg != nil {
		spec.Obs = &obs.Options{Timeline: true, Reg: reg}
	}
	exec := Executor{Parallelism: parallelism, Worlds: pool}
	runOne := poolRunner(pool)
	if c.Inject {
		pr, err := Pipeline{Spec: spec, CollectRuns: 6, Improved: true, Exec: exec}.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		spec.Inject = pr.Config
	}
	rec := goldenRecord{}
	times := make([]int64, c.Reps)
	injectorNs := make([]int64, c.Reps)
	injectedAll := make([]bool, c.Reps)
	var traces []*trace.Trace
	err := exec.run(context.Background(), c.Reps, func(i int) (*obs.Recorder, error) {
		s := spec
		s.Seed = SeedAt(spec.Seed, i)
		res, err := runOne(s)
		if err != nil {
			return nil, err
		}
		times[i] = int64(res.ExecTime)
		injectorNs[i] = int64(res.InjectorCPUTime)
		injectedAll[i] = res.InjectedAll
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Times = times
	for _, ns := range injectorNs {
		rec.InjectorNs += ns
	}
	rec.InjectedAll = c.Reps > 0 && injectedAll[c.Reps-1]
	if c.Tracing {
		// Re-run traced sequentially so trace order is rep order.
		for i := 0; i < c.Reps; i++ {
			s := spec
			s.Seed = SeedAt(spec.Seed, i)
			res, err := runOne(s)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, res.Trace)
		}
		rec.TraceHash, rec.TraceEvents = fingerprintTraces(traces)
	}
	return rec
}

// batchedReps reads the count of reps that ran in a reused world.
func batchedReps(reg *obs.Registry) uint64 {
	return reg.Counter("repro_sim_batched_reps_total", "").Value()
}

// TestGoldenKernel verifies the simulation kernel reproduces the pinned
// outputs exactly, at executor parallelism 1 and 8, with every run in a
// fresh world (FreshWorlds, the reference the fixture is generated from).
func TestGoldenKernel(t *testing.T) {
	update := os.Getenv("REPRO_UPDATE_GOLDEN") != ""
	var golden map[string]goldenRecord
	if !update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden fixture (set REPRO_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]goldenRecord{}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			seq := runGoldenCase(t, c, 1, nil, FreshWorlds())
			par := runGoldenCase(t, c, 8, nil, FreshWorlds())
			if fmt.Sprint(seq) != fmt.Sprint(par) {
				t.Fatalf("parallelism changed outputs:\n  p=1: %+v\n  p=8: %+v", seq, par)
			}
			got[c.Name] = seq
			if update {
				return
			}
			want, ok := golden[c.Name]
			if !ok {
				t.Fatalf("case %q missing from golden fixture; regenerate with REPRO_UPDATE_GOLDEN=1", c.Name)
			}
			if fmt.Sprint(want) != fmt.Sprint(seq) {
				t.Errorf("kernel output diverged from golden fixture:\n  want %+v\n  got  %+v", want, seq)
			}
		})
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(got))
	}
}

// TestGoldenKernelObs re-runs the golden matrix with the observability
// recorder attached (full timeline on every rep), at parallelism 1 and 8 in
// fresh worlds, and demands the outputs still match the fixture byte for
// byte. The recorder is a passive observer — unlike the tracer, which
// models its own overhead — so it must be invisible to the simulation. Its
// registry also proves the axis is fresh: no rep may count as batched.
func TestGoldenKernelObs(t *testing.T) {
	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		t.Skip("fixture is regenerated by TestGoldenKernel (obs must not define the baseline)")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	var golden map[string]goldenRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			want, ok := golden[c.Name]
			if !ok {
				t.Fatalf("case %q missing from golden fixture", c.Name)
			}
			for _, parallelism := range []int{1, 8} {
				reg := obs.NewRegistry()
				got := runGoldenCase(t, c, parallelism, reg, FreshWorlds())
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("obs-enabled run diverged from fixture at parallelism %d:\n  want %+v\n  got  %+v",
						parallelism, want, got)
				}
				if n := batchedReps(reg); n != 0 {
					t.Errorf("fresh worlds at parallelism %d counted %d batched reps, want 0", parallelism, n)
				}
			}
		})
	}
}

// TestGoldenKernelBatch re-runs the golden matrix through pooled worlds —
// every rep in a warm, reset world when the pool has one — at parallelism 1
// and 8, with and without the observability recorder, and demands the
// fixture still matches byte for byte. One pool is shared across all cases
// of a sub-test, so worlds cross spec boundaries (different workloads,
// models, seeds, injection configs reuse the same reset world whenever
// topology and scheduler options agree) — the strongest practical exercise
// of the reset path. Sequentially, every case with more than one rep must
// count batched reps, so this axis provably differs from the fresh one.
func TestGoldenKernelBatch(t *testing.T) {
	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		t.Skip("fixture is regenerated by TestGoldenKernel (pooled worlds must not define the baseline)")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	var golden map[string]goldenRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, withObs := range []bool{false, true} {
		for _, parallelism := range []int{1, 8} {
			name := fmt.Sprintf("p%d", parallelism)
			if withObs {
				name += "-obs"
			}
			withObs, parallelism := withObs, parallelism
			t.Run(name, func(t *testing.T) {
				pool := NewWorldPool()
				for _, c := range goldenCases() {
					want, ok := golden[c.Name]
					if !ok {
						t.Fatalf("case %q missing from golden fixture", c.Name)
					}
					var reg *obs.Registry
					if withObs {
						reg = obs.NewRegistry()
					}
					got := runGoldenCase(t, c, parallelism, reg, pool)
					if fmt.Sprint(want) != fmt.Sprint(got) {
						t.Errorf("%s: pooled run diverged from fixture:\n  want %+v\n  got  %+v",
							c.Name, want, got)
					}
					if reg != nil && parallelism == 1 && c.Reps > 1 && batchedReps(reg) == 0 {
						t.Errorf("%s: pooled worlds counted no batched reps", c.Name)
					}
				}
			})
		}
	}
}
