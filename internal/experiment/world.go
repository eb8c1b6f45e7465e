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
// reset when it returns to the pool. Safe for concurrent use; at most one
// world per in-flight rep is ever live.
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

// recycles reports whether worlds and shells are kept for later reps: the
// one reuse rule behind kernel worlds and cluster shells. A nil pool (a
// series' transient pool) recycles; FreshWorlds does not.
func (p *WorldPool) recycles() bool { return p == nil || !p.fresh }

// put resets a world after its rep and keeps it for the next one.
func (p *WorldPool) put(w *world) {
	if !p.recycles() {
		return
	}
	w.reset()
	p.worlds.put(w.key, w)
}

// world is one reusable simulation universe: an engine and a scheduler for
// one (topology, options) pair. Everything seed-dependent — noise
// attachment, the replayer, the runtime, the workload body — is built per
// rep inside run, so a rep executed in a warm world is byte-identical to
// one in a fresh world: the reset returns every counter and clock to its
// post-construction value, and pooled storage (timer structs, task
// structs, heap arrays) never influences a scheduling decision.
type world struct {
	key   worldKey
	eng   *sim.Engine
	sched *cpusched.Scheduler
	// tracer is lazily created on the first traced rep and reused: reset
	// detaches a kept trace's buffer, which the rep's result owns, and
	// re-arms it right-sized; dropTrace rewinds a discarded one in place.
	tracer      *trace.Tracer
	dirtyTracer bool
	reused      bool // a rep already ran here
	// Pool-miss baselines, captured at run entry.
	timerAllocs0 uint64
	taskAllocs0  uint64
}

// newWorld builds a world. Scheduler construction schedules no events, so
// the engine stays at its post-NewEngine state until the first rep.
func newWorld(k worldKey) *world {
	eng := sim.NewEngine()
	return &world{key: k, eng: eng, sched: cpusched.New(eng, k.topo, k.opt)}
}

// run executes one rep in this world: attach noise and replayer, start
// prog, drive the engine, collect, shut down. prog must be spec.compile's
// program for plan. Shutdown runs with the tracer still attached, so the
// kill cascade's final task spans land in the returned trace.
func (w *world) run(spec Spec, plan *mitigate.Plan, prog *parmodel.Program) (Result, error) {
	w.timerAllocs0 = w.eng.TimerAllocs
	w.taskAllocs0 = w.sched.TaskAllocs
	res, err := w.body(spec, plan, prog)
	w.sched.Shutdown()
	return res, err
}

// reset returns scheduler and engine to their post-construction state so
// the world is pristine for the next rep. The last rep's trace is the
// tracer's internal buffer; Detach hands it to that rep's result for good
// and re-arms the tracer with a fresh one.
func (w *world) reset() {
	if w.dirtyTracer {
		w.tracer.Detach()
		w.dirtyTracer = false
	}
	w.sched.Reset()
	w.eng.Reset()
	w.reused = true
}

// dropTrace discards the last rep's trace, which nobody kept: the tracer
// rewinds its buffer in place, so the next traced rep in this world
// allocates no event storage. Without it every traced rep would allocate a
// fresh buffer, and a series that keeps no traces would run the garbage
// collector (and its write barriers) every few reps.
func (w *world) dropTrace() {
	if w.dirtyTracer {
		w.tracer.Rewind()
		w.dirtyTracer = false
	}
}

// body is the rep itself, between world construction and shutdown.
func (w *world) body(spec Spec, plan *mitigate.Plan, prog *parmodel.Program) (Result, error) {
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
			return Result{Obs: rec}, err
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

	done := parmodel.Start(sched, plan, prog)

	if replayer != nil {
		// Injector processes synchronize with workload start (Listing 1's
		// barrier): both begin at t=0.
		replayer.Start()
		done.OnDone(func() { replayer.StopAll() })
	}

	eng.RunWhile(func() bool { return !done.Done() })
	poolMisses := (eng.TimerAllocs - w.timerAllocs0) + (sched.TaskAllocs - w.taskAllocs0)
	if rec != nil {
		publishRunCounters(rec.Registry(), eng, sched, gen, rec, w.reused, poolMisses)
	}
	if !done.Done() {
		// Hand the recorder back with the error: the flight ring holds the
		// last scheduling events before the queue drained, which is exactly
		// the evidence a deadlock diagnosis needs.
		return Result{Obs: rec}, fmt.Errorf("experiment: workload deadlocked (event queue drained)")
	}
	res := Result{
		ExecTime:        eng.Now(),
		ContextSwitches: sched.ContextSwitches,
		Requests:        sched.Requests,
		PoolMisses:      poolMisses,
		Obs:             rec,
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
