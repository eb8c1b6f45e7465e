package experiment

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/parmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

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

// freeList is a concurrency-safe stack of idle values per key: the one pool
// mechanism behind both kernel worlds and cluster shells.
type freeList[K comparable, V any] struct {
	mu   sync.Mutex
	free map[K][]V
}

// get pops an idle value for k; ok is false when none is idle.
func (l *freeList[K, V]) get(k K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	vs := l.free[k]
	if len(vs) == 0 {
		return v, false
	}
	v = vs[len(vs)-1]
	var zero V
	vs[len(vs)-1] = zero
	l.free[k] = vs[:len(vs)-1]
	return v, true
}

// put pushes an idle value for k.
func (l *freeList[K, V]) put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.free == nil {
		l.free = make(map[K][]V)
	}
	l.free[k] = append(l.free[k], v)
}

// WorldPool caches warm worlds keyed by (topology, scheduler options),
// letting repeated series — sweep points, refinement iterations,
// config-candidate hunts — share the construction prefix instead of
// rebuilding it per rep. Worlds are pristine when obtained: a world is
// reset to its construction snapshots when it returns to the pool. Safe for
// concurrent use; at most one world per in-flight rep is ever live.
type WorldPool struct {
	worlds freeList[worldKey, *world]
	// fresh makes the pool drop every returned world (FreshWorlds).
	fresh bool
}

// NewWorldPool returns an empty world pool.
func NewWorldPool() *WorldPool { return &WorldPool{} }

// FreshWorlds returns a pool that never recycles: every rep drawn from it
// builds a new world and drops it afterwards. It is the determinism
// reference the golden tests compare pooled execution against (a rep in a
// warm world must be byte-identical to one in a fresh world), not a
// performance option.
func FreshWorlds() *WorldPool { return &WorldPool{fresh: true} }

// get returns a pristine world for k, building one on a pool miss.
func (p *WorldPool) get(k worldKey) *world {
	if w, ok := p.worlds.get(k); ok {
		return w
	}
	return newWorld(k)
}

// put resets a world after its rep and keeps it for the next one.
func (p *WorldPool) put(w *world) {
	if p.fresh {
		return
	}
	w.reset()
	p.worlds.put(w.key, w)
}

// world is one reusable simulation universe: an engine and a scheduler for
// one (topology, options) pair, plus their construction snapshots.
// Everything seed-dependent — noise attachment, the replayer, the runtime,
// the workload body — is built per rep inside run, so a rep executed in a
// warm world is byte-identical to one in a fresh world: the reset restores
// every counter and clock the construction snapshots cover, and pooled
// storage (timer structs, task structs, heap arrays) never influences a
// scheduling decision.
type world struct {
	key       worldKey
	eng       *sim.Engine
	engSnap   sim.Snapshot
	sched     *cpusched.Scheduler
	schedSnap cpusched.Snapshot
	// tracer is lazily created on the first traced rep and reused (reset
	// detaches its buffer, which the rep's result owns, and re-arms it
	// right-sized).
	tracer      *trace.Tracer
	dirtyTracer bool
	warm        bool // a rep already ran here; the next one counts as batched
	// Pool-miss baselines, captured at run entry, for the cow-copies
	// counters.
	timerAllocs0 uint64
	taskAllocs0  uint64
}

// newWorld builds a world and captures its construction snapshots. The
// engine is snapshotted before the scheduler is built; scheduler
// construction schedules no events, so the engine snapshot stays
// quiescent.
func newWorld(k worldKey) *world {
	eng := sim.NewEngine()
	w := &world{key: k, eng: eng, engSnap: eng.Snapshot()}
	w.sched = cpusched.New(eng, k.topo, k.opt)
	w.schedSnap = w.sched.Snapshot()
	return w
}

// run executes one rep in this world: attach noise and replayer, start the
// runtime, drive the engine, collect, shut down. Shutdown runs with the
// tracer still attached, so the kill cascade's final task spans land in the
// returned trace.
func (w *world) run(spec Spec, plan *mitigate.Plan) (Result, error) {
	w.timerAllocs0 = w.eng.TimerAllocs
	w.taskAllocs0 = w.sched.TaskAllocs
	res, err := w.body(spec, plan)
	w.sched.Shutdown()
	return res, err
}

// reset forks scheduler and engine back to their construction snapshots so
// the world is pristine for the next rep. The last rep's trace is the
// tracer's internal buffer; Detach hands it to that rep's result for good
// and re-arms the tracer with a fresh one.
func (w *world) reset() {
	if w.dirtyTracer {
		w.tracer.Detach()
		w.dirtyTracer = false
	}
	w.sched.Fork(w.schedSnap)
	w.eng.Fork(w.engSnap)
	w.warm = true
}

// body is the rep itself, between world construction and shutdown.
func (w *world) body(spec Spec, plan *mitigate.Plan) (Result, error) {
	eng, sched := w.eng, w.sched

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
	// the runtime starts. Devices are per-rep state: the reset clears the
	// registry, so a pooled world re-registers every rep.
	if iow, ok := spec.Workload.(workloads.IOWorkload); ok {
		for _, d := range iow.Devices() {
			sched.AddDevice(d)
		}
	}

	var cfg parmodel.Config
	switch spec.Model {
	case "omp":
		cfg = parmodel.OpenMP()
		if spec.OMP != nil {
			cfg = *spec.OMP
		}
	case "sycl":
		cfg = parmodel.SYCL()
	default:
		return Result{Obs: rec}, fmt.Errorf("experiment: unknown model %q", spec.Model)
	}
	if spec.DLRuntime > 0 {
		cfg.Policy = cpusched.PolicyDeadline
		cfg.DLRuntime = spec.DLRuntime
		cfg.DLPeriod = spec.DLPeriod
	}
	done := parmodel.Start(sched, plan, cfg, spec.Workload.Body())

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
