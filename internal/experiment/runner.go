// Package experiment orchestrates the paper's evaluation: single simulated
// executions (traced or not, with or without noise injection), the
// three-stage injector pipeline over trace sets, the baseline and injection
// studies behind Tables 1-7, and the A64FX motivation figures.
package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpusched"
	"repro/internal/mitigate"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/parmodel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// noiseHorizon bounds noise generation; effectively "forever" relative to
// any run.
const noiseHorizon = sim.Time(1) << 60

// Models lists the two programming models under comparison.
var Models = []string{"omp", "sycl"}

// Spec describes one simulated execution.
type Spec struct {
	// Platform supplies machine, noise profile, and scheduler options.
	Platform *platform.Platform
	// Workload is the cost model to execute.
	Workload workloads.Workload
	// Model selects the runtime: "omp" or "sycl".
	Model string
	// Strategy is the mitigation configuration.
	Strategy mitigate.Strategy
	// Seed drives all randomness of the run.
	Seed uint64
	// Tracing enables the osnoise-style tracer (with its small overhead).
	Tracing bool
	// Inject, when non-nil, replays this noise configuration during the
	// run (stage 3 of the injector).
	Inject *core.Config
	// PinInjectors pins injector processes to their configured CPUs
	// (ablation; the paper leaves them unpinned).
	PinInjectors bool
	// NoiseScale multiplies the natural noise intensity; 0 means 1.0.
	NoiseScale float64
	// NoiseSource, when non-empty, names one noise source class (see
	// noise.SourceClasses) to scale by SourceScale while every other
	// source stays at its natural intensity — the differential probe the
	// bottleneck analysis sweeps. Applied after NoiseScale/Runlevel3.
	NoiseSource string
	// SourceScale is the intensity factor for NoiseSource; ignored when
	// NoiseSource is empty. A factor of 1 leaves natural sources untouched
	// (the bandwidth class still seeds its synthetic hog at base rate).
	SourceScale float64
	// Runlevel3 disables GUI noise, as in the paper's re-runs.
	Runlevel3 bool
	// OMP overrides the OpenMP runtime config (nil = parmodel.OpenMP()).
	OMP *parmodel.Config
	// DLRuntime/DLPeriod, when positive, spawn every workload thread under
	// SCHED_DEADLINE with this per-thread CBS reservation (runtime of CPU
	// per period) — the deadline-class mitigation. Zero leaves threads in
	// the fair class. Applied on top of the OMP override.
	DLRuntime sim.Time
	DLPeriod  sim.Time
	// Obs, when non-nil, attaches a passive observability recorder to the
	// run (spans, flight ring, registry counters). Unlike Tracing it steals
	// no simulated time: results are byte-identical with or without it.
	Obs *obs.Options
}

// Result is the outcome of one execution.
type Result struct {
	// ExecTime is the workload's execution time.
	ExecTime sim.Time
	// Trace is the recorded trace (nil unless Spec.Tracing).
	Trace *trace.Trace
	// InjectedAll reports whether every configured noise event was
	// injected before the workload finished.
	InjectedAll bool
	// InjectorCPUTime is the total CPU time injector processes consumed;
	// InjectorOnWorkload is the share that landed on CPUs the workload
	// was allowed to use. Their difference is what the housekeeping
	// cores absorbed. Zero unless Spec.Inject was set.
	InjectorCPUTime    sim.Time
	InjectorOnWorkload sim.Time
	// Kernel counters (noiselab -v prints them): ContextSwitches is
	// dispatches, Requests the requests task programs returned, and
	// PoolMisses the timer and task structs allocated because the world's
	// free pools were empty. A warm world runs a rep with PoolMisses near
	// zero.
	ContextSwitches uint64
	Requests        uint64
	PoolMisses      uint64
	// Obs is the run's observability recorder (nil unless Spec.Obs). On a
	// deadlock failure it is returned alongside the error so callers can
	// dump the flight ring.
	Obs *obs.Recorder
}

// AbsorbedFraction returns the share of injected noise that landed outside
// the workload's CPUs (absorbed by housekeeping), 0 when nothing was
// injected.
func (r Result) AbsorbedFraction() float64 {
	if r.InjectorCPUTime <= 0 {
		return 0
	}
	return float64(r.InjectorCPUTime-r.InjectorOnWorkload) / float64(r.InjectorCPUTime)
}

// validate rejects specs no world can run.
func (s Spec) validate() error {
	if s.Platform == nil || s.Workload == nil {
		return fmt.Errorf("experiment: spec needs platform and workload")
	}
	return nil
}

// RunOnce executes one simulated run in a world built for it and dropped
// afterwards (no reset: nothing reuses it).
func RunOnce(spec Spec) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		return Result{}, err
	}
	return newWorld(worldKeyFor(spec)).run(spec, plan)
}

// publishRunCounters publishes the run's kernel counters to the shared obs
// registry — the one export path for engine, scheduler, noise, and recorder
// counters (noiselab -obs and the daemon both render it). reused reports
// whether the rep ran in a world an earlier rep had used.
func publishRunCounters(reg *obs.Registry, eng *sim.Engine, sched *cpusched.Scheduler,
	gen *noise.Generator, rec *obs.Recorder, reused bool, poolMisses uint64) {
	reg.Counter("repro_runs_total", "Completed simulation runs.").Inc()
	st := eng.Stats()
	reg.Counter("repro_sim_steps_total", "Engine events processed.").Add(st.Steps)
	reg.Counter("repro_sim_rekeys_total", "Pending engine timers re-keyed in place.").Add(st.Rekeys)
	reg.Counter("repro_sched_mem_rerates_total",
		"Memory-stream completions re-rated (walk refreshes plus flush re-keys).").Add(sched.MemRerates)
	reg.Counter("repro_sched_context_switches_total", "Task dispatches.").Add(sched.ContextSwitches)
	reg.Counter("repro_sched_inline_dispatches_total",
		"Requests returned by task programs.").Add(sched.Requests)
	reg.Counter("repro_sched_preemptions_total", "Involuntary context switches.").Add(sched.TotalPreemptions())
	reg.Counter("repro_sched_migrations_total", "Cross-CPU task migrations.").Add(sched.TotalMigrations())
	reg.Counter("repro_noise_tasks_spawned_total", "Noise tasks spawned.").Add(uint64(gen.Spawned))
	reg.Counter("repro_noise_irqs_total", "Interrupts injected.").Add(uint64(gen.IRQs))
	reg.Counter("repro_obs_events_total", "Observability events recorded.").Add(rec.Total())
	reg.Counter("repro_obs_events_dropped_total",
		"Timeline events dropped by the buffer cap.").Add(rec.Dropped())
	// The three world families keep their historical names (benchmark
	// reports read them by name).
	built := uint64(1)
	if reused {
		built = 0
	}
	reg.Counter("repro_sim_snapshots_total",
		"Reps that ran in a newly built world.").Add(built)
	reg.Counter("repro_sim_cow_copies_total",
		"Timer and task structs allocated because a world's free pools were empty.").Add(poolMisses)
	reg.Counter("repro_sim_batched_reps_total",
		"Reps that ran in a reused world.").Add(1 - built)
}
