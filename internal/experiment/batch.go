package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/omprt"
	"repro/internal/sim"
	"repro/internal/syclrt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BatchPolicy selects whether a series runs its reps through pooled batch
// worlds — engine + scheduler built once, forked back to their construction
// snapshots between reps — or builds every rep from scratch. Output is
// byte-identical either way (the golden fixtures pin this at parallelism 1
// and 8, with and without obs); the policy only decides where the
// construction cost is paid.
type BatchPolicy int

const (
	// BatchAuto batches when a series has at least BatchThreshold reps.
	BatchAuto BatchPolicy = iota
	// BatchOn always batches.
	BatchOn
	// BatchOff never batches — the noiselab -batch=off escape hatch.
	BatchOff
)

// BatchThreshold is the rep count at which BatchAuto turns batching on:
// below it a world is unlikely to be reused enough to amortize itself.
const BatchThreshold = 4

// ParseBatchPolicy parses a -batch flag value: "auto", "on", or "off".
func ParseBatchPolicy(s string) (BatchPolicy, error) {
	switch s {
	case "", "auto":
		return BatchAuto, nil
	case "on":
		return BatchOn, nil
	case "off":
		return BatchOff, nil
	}
	return BatchAuto, fmt.Errorf("experiment: unknown batch policy %q (want auto, on, or off)", s)
}

// batchReps applies the policy to a rep count.
func (e Executor) batchReps(reps int) bool {
	switch e.Batch {
	case BatchOn:
		return true
	case BatchOff:
		return false
	}
	return reps >= BatchThreshold
}

// batchEligible reports whether a series should run through pooled batch
// worlds. Specs missing platform or workload fall through to the legacy
// path so its validation error surfaces unchanged.
func (e Executor) batchEligible(spec Spec, reps int) bool {
	return spec.Platform != nil && spec.Workload != nil && e.batchReps(reps)
}

// worldKey identifies interchangeable worlds: same machine (by topology
// identity) and same scheduler options (by value — studies mutate
// Platform.SchedOpt between series, so the options cannot be keyed through
// the platform pointer).
type worldKey struct {
	topo *machine.Topology
	opt  cpusched.Options
}

func worldKeyFor(spec Spec) worldKey {
	return worldKey{topo: spec.Platform.Topo, opt: spec.Platform.SchedOpt}
}

// WorldPool caches warm batch worlds keyed by (topology, scheduler
// options), letting repeated series — sweep points, refinement iterations,
// config-candidate hunts — share the construction prefix instead of
// rebuilding it per rep. Worlds are pristine when obtained: the end-of-run
// teardown forks them back to their construction snapshots before they
// return to the pool. Safe for concurrent use; at most one world per
// in-flight rep is ever live.
type WorldPool struct {
	mu   sync.Mutex
	free map[worldKey][]*world
}

// NewWorldPool returns an empty world pool.
func NewWorldPool() *WorldPool { return &WorldPool{} }

func (p *WorldPool) get(k worldKey) *world {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.free[k]
	if len(ws) == 0 {
		return nil
	}
	w := ws[len(ws)-1]
	ws[len(ws)-1] = nil
	p.free[k] = ws[:len(ws)-1]
	return w
}

func (p *WorldPool) put(w *world) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[worldKey][]*world)
	}
	p.free[w.key] = append(p.free[w.key], w)
}

// world is one reusable simulation universe: an engine (via sim.Batch) and
// a scheduler for one (topology, options) pair, plus their construction
// snapshots. Everything seed-dependent — noise attachment, the replayer,
// the runtime, the workload body — is built per rep inside run, so a rep
// executed in a warm world is byte-identical to one in a fresh world: the
// fork restores every counter and clock the construction snapshot covers,
// and pooled storage (timer structs, task structs, heap arrays) never
// influences a scheduling decision.
type world struct {
	key       worldKey
	batch     *sim.Batch
	sched     *cpusched.Scheduler
	schedSnap cpusched.Snapshot
	// tracer is lazily created on the first traced rep and reused (its
	// buffer is detached into each rep's result and re-armed right-sized).
	tracer      *trace.Tracer
	dirtyTracer bool
	// pooled marks worlds that return to a WorldPool: their teardown forks
	// the state back. A one-shot world (the legacy RunOnce path) skips the
	// fork and hands out its internal trace directly, exactly as the
	// per-rep path always did.
	pooled bool
	warm   bool // a rep already ran here; the next one counts as batched
	// Pool-miss baselines, captured at run entry, for the cow-copies
	// counters.
	timerAllocs0 uint64
	taskAllocs0  uint64
}

// newWorld builds a world and captures its construction snapshots.
func newWorld(k worldKey, pooled bool) *world {
	b := sim.NewBatch()
	s := cpusched.New(b.Engine(), k.topo, k.opt)
	return &world{key: k, batch: b, sched: s, schedSnap: s.Snapshot(), pooled: pooled}
}

// run executes one rep in this world: the exact legacy sequence (attach
// noise and replayer, start the runtime, drive the engine, collect,
// shut down) plus — for pooled worlds — a fork of scheduler and engine back
// to their construction snapshots, so the world is pristine for the next
// rep.
func (w *world) run(spec Spec, plan *mitigate.Plan) (Result, error) {
	w.timerAllocs0 = w.batch.Engine().TimerAllocs
	w.taskAllocs0 = w.sched.TaskAllocs
	res, err := w.body(spec, plan)
	// Legacy teardown order: Shutdown runs with the tracer still attached,
	// so the kill cascade's final task spans land in the returned trace
	// exactly as the per-rep path records them (it shut down via defer,
	// after Finish).
	w.sched.Shutdown()
	if w.pooled {
		if w.dirtyTracer {
			detached := w.tracer.Detach()
			if res.Trace != nil {
				// Finish returned the tracer's internal trace; Detach hands
				// that same object over and re-arms the tracer for reuse.
				res.Trace = detached
			}
			w.dirtyTracer = false
		}
		w.sched.Fork(w.schedSnap)
		w.batch.Fork()
		w.warm = true
	}
	return res, err
}

// body is the run body shared by the legacy per-rep path and the batched
// path — the sequence previously inlined in runOnceWithPlan.
func (w *world) body(spec Spec, plan *mitigate.Plan) (Result, error) {
	eng, sched := w.batch.Engine(), w.sched

	var tracer *trace.Tracer
	if spec.Tracing {
		if w.tracer == nil {
			w.tracer = trace.NewTracer(0)
		}
		tracer = w.tracer
		sched.SetTracer(tracer)
		w.dirtyTracer = true
	}

	var rec *obs.Recorder
	if spec.Obs != nil {
		rec = obs.NewRecorder(*spec.Obs)
		sched.SetObserver(rec)
	}

	prof := spec.Platform.Noise
	if spec.Runlevel3 {
		prof = prof.WithRunlevel3()
	}
	if spec.NoiseScale > 0 && spec.NoiseScale != 1.0 {
		prof = prof.Scale(spec.NoiseScale)
	}
	if spec.NoiseSource != "" {
		prof = prof.ScaleSource(spec.NoiseSource, spec.SourceScale)
	}
	rng := sim.NewRNG(spec.Seed)
	gen := noise.Attach(sched, prof, rng.Stream("noise"), noiseHorizon)

	var replayer *core.Replayer
	if spec.Inject != nil {
		r, err := core.NewReplayer(sched, spec.Inject)
		if err != nil {
			return Result{}, err
		}
		r.PinInjectors = spec.PinInjectors
		replayer = r
	}

	// I/O workloads declare the devices they block on; register them before
	// the runtime starts. Devices are per-rep state: the end-of-run fork
	// clears the registry, so a pooled world re-registers every rep.
	if iow, ok := spec.Workload.(workloads.IOWorkload); ok {
		for _, d := range iow.Devices() {
			sched.AddDevice(d)
		}
	}

	var done *cpusched.Task
	switch spec.Model {
	case "omp":
		cfg := omprt.DefaultConfig()
		if spec.OMP != nil {
			cfg = *spec.OMP
		}
		if spec.DLRuntime > 0 {
			cfg.Policy = cpusched.PolicyDeadline
			cfg.DLRuntime = spec.DLRuntime
			cfg.DLPeriod = spec.DLPeriod
		}
		team := omprt.Start(sched, plan, cfg, spec.Workload.Body())
		done = team.Master()
	case "sycl":
		cfg := syclrt.DefaultConfig()
		if spec.SYCL != nil {
			cfg = *spec.SYCL
		}
		if spec.DLRuntime > 0 {
			cfg.Policy = cpusched.PolicyDeadline
			cfg.DLRuntime = spec.DLRuntime
			cfg.DLPeriod = spec.DLPeriod
		}
		q := syclrt.Start(sched, plan, cfg, spec.Workload.Body())
		done = q.Host()
	default:
		return Result{Obs: rec}, fmt.Errorf("experiment: unknown model %q", spec.Model)
	}

	if replayer != nil {
		// Injector processes synchronize with workload start (Listing 1's
		// barrier): both begin at t=0.
		replayer.Start()
		done.OnDone(func() { replayer.StopAll() })
	}

	eng.RunWhile(func() bool { return !done.Done() })
	snapshots, batched := uint64(1), uint64(0)
	if w.warm {
		snapshots, batched = 0, 1
	}
	cowCopies := (eng.TimerAllocs - w.timerAllocs0) + (sched.TaskAllocs - w.taskAllocs0)
	if rec != nil {
		publishRunCounters(rec.Registry(), eng, sched, gen, rec, snapshots, cowCopies, batched)
	}
	if !done.Done() {
		// Hand the recorder back with the error: the flight ring holds the
		// last scheduling events before the queue drained, which is exactly
		// the evidence a deadlock diagnosis needs.
		return Result{Obs: rec}, fmt.Errorf("experiment: workload deadlocked (event queue drained)")
	}
	res := Result{
		ExecTime:         eng.Now(),
		ContextSwitches:  sched.ContextSwitches,
		InlineDispatches: sched.InlineDispatches,
		Snapshots:        snapshots,
		CowCopies:        cowCopies,
		BatchedReps:      batched,
		Obs:              rec,
	}
	if replayer != nil {
		res.InjectedAll = replayer.Done()
		for cpu := 0; cpu < spec.Platform.Topo.NumCPUs(); cpu++ {
			t := sched.CPUTimeOf(cpu, cpusched.KindInjector)
			res.InjectorCPUTime += t
			if plan.Allowed.Has(cpu) {
				res.InjectorOnWorkload += t
			}
		}
	}
	if tracer != nil {
		res.Trace = tracer.Finish(res.ExecTime, spec.Platform.Name,
			spec.Workload.Name(), spec.Model, spec.Strategy.Name(), spec.Seed)
	}
	return res, nil
}

// withWorlds returns the executor with a world pool attached (a fresh one
// when none is set). Multi-series flows — pipelines, sweeps, studies — call
// it once at entry so every series they launch shares warm worlds across
// series boundaries, not just across the reps of one series.
func (e Executor) withWorlds() Executor {
	if e.Worlds == nil {
		e.Worlds = NewWorldPool()
	}
	return e
}

// batchedSeries is the pooled-world Series body: the plan, noise profile
// derivation, and world construction are shared across reps; each rep forks
// a pristine world from the pool (or builds one on a pool miss), runs, and
// returns the world forked-back for the next rep. Rep-to-world assignment
// is arbitrary under parallelism — which is only sound because a warm world
// is indistinguishable from a fresh one.
func (e Executor) batchedSeries(ctx context.Context, spec Spec, plan *mitigate.Plan,
	reps int, withTraces bool) ([]sim.Time, []*trace.Trace, error) {
	times := make([]sim.Time, reps)
	traces := make([]*trace.Trace, reps)
	pool := e.Worlds
	if pool == nil {
		pool = NewWorldPool()
	}
	key := worldKeyFor(spec)
	var rec0 *obs.Recorder
	err := e.run(ctx, reps, func(i int) (*obs.Recorder, error) {
		s := spec
		s.Seed = seedAt(spec.Seed, i)
		e.applyObs(&s, i)
		w := pool.get(key)
		if w == nil {
			w = newWorld(key, true)
		}
		res, err := w.run(s, plan)
		pool.put(w)
		if err != nil {
			return res.Obs, err
		}
		if i == 0 {
			rec0 = res.Obs
		}
		times[i] = res.ExecTime
		traces[i] = res.Trace
		return nil, nil
	})
	if err != nil {
		return nil, nil, err
	}
	e.deliverTimeline(rec0)
	if !withTraces {
		return times, nil, nil
	}
	return times[:reps:reps], compactTraces(traces), nil
}
