package experiment

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// seedStride separates consecutive rep seeds of a series. Reps are a pure
// function of (spec, seed), so any fixed stride works; this prime keeps the
// historical seed sequence intact across the parallel refactor.
const seedStride = 1000003

// SeedAt derives the seed for rep i of a series starting at base. Because
// every series (kernel or cluster) derives rep i's seed as
// base + i*stride, a series starting at SeedAt(base, off) runs exactly reps
// [off, off+n) of the series starting at base — the property the fleet's
// rep splitter uses to fan one job's repetitions across backends and merge
// the index-addressed slices byte-identically.
//
// Arithmetic is modulo 2^64 by design: a base near MaxUint64 wraps, and the
// wrapped value is the contract — every backend computes the same uint64,
// so a fleet split still reassembles byte-identically. Because the stride
// is odd (hence invertible mod 2^64), i ↦ SeedAt(base, i) is injective over
// any window of fewer than 2^64 reps: no two reps of a series ever collide
// on a seed, wrapped or not. FuzzSeedAt pins both properties.
func SeedAt(base uint64, i int) uint64 { return base + uint64(i)*seedStride }

// ProgressFunc receives completion updates from a running study: done of
// total units are finished, and label names the unit that just completed.
// Callbacks are serialized; keep them fast.
type ProgressFunc func(done, total int, label string)

// Executor is the execution layer every study fans its repetitions through.
// Reps of a series are pure functions of (spec, seed), so the executor runs
// them on a bounded worker pool while guaranteeing results bit-identical to
// sequential execution: per-rep seeds are derived by index (SeedAt), each
// in-flight rep gets its own world (engine and scheduler, reset between
// reps), and results land in index-addressed slots so ordering never
// depends on goroutine completion.
//
// The zero value is ready to use and runs with Workers() parallelism.
type Executor struct {
	// Parallelism bounds the worker pool. 0 means runtime.GOMAXPROCS(0);
	// negative values mean 1 (strictly sequential).
	Parallelism int
	// OnRep, when non-nil, is called after each rep of a series
	// completes, with the count of completed reps and the series total.
	// Calls are serialized but not index-ordered.
	OnRep func(done, total int)
	// OnCell, when non-nil, receives study-level progress: one call per
	// completed experiment cell (a series, pipeline, or case).
	OnCell ProgressFunc
	// Obs, when non-nil, attaches an obs recorder to each rep whose
	// output something reads (see ObsOptions); other reps run unobserved.
	Obs *ObsOptions
	// Worlds, when non-nil, is the pool series draw their warm worlds
	// from, letting sweeps and repeated series share construction across
	// calls. Nil uses a transient pool per series (reps still share worlds
	// within the series).
	Worlds *WorldPool

	// claimed, when non-nil, runs after a worker claims rep index i and
	// before it acts on its decision to run or skip it. Tests use it to
	// hold a worker in that window.
	claimed func(i int)
}

// ObsOptions configures per-rep observability for an Executor. A rep gets
// a recorder (and with it a flight ring) only when one of these fields
// reads it: Timeline or OnEvent for rep 0, Reg, FlightSink or OnFlight for
// every rep.
type ObsOptions struct {
	// Timeline records the full event timeline of rep 0 of each series
	// (one representative run; recording every rep would multiply memory
	// for no analysis gain — reps differ only by seed).
	Timeline bool
	// OnEvent, when non-nil, receives each event of rep 0's timeline
	// window as it is emitted, whether or not Timeline stores it. It runs
	// on the goroutine that runs rep 0; state it builds may be read once
	// the series returns.
	OnEvent func(obs.Event)
	// Ring is the per-rep flight-ring size (0 = obs.DefaultRing).
	Ring int
	// Reg, when non-nil, receives every rep's kernel counters (counter
	// adds commute, so totals are deterministic under parallelism).
	Reg *obs.Registry
	// OnTimeline receives rep 0's recorder after a successful series when
	// Timeline is set. Called once per series, on the series' goroutine.
	OnTimeline func(*obs.Recorder)
	// FlightSink, when non-nil, receives a flight-recorder dump (JSON) when
	// a series fails: one document, from the failed rep whose error the
	// series returns (the lowest failing index). Dumps are serialized.
	FlightSink io.Writer
	// OnFlight, when non-nil, receives the structured form of the same
	// single flight dump (the daemon retains these for
	// /debug/flightrecorder). Calls are serialized with FlightSink writes.
	OnFlight func(obs.Flight)
}

// Workers resolves the effective worker-pool size.
func (e Executor) Workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	if e.Parallelism < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// run executes rep(i) for every i in [0, n) over the worker pool. A failed
// rep skips every rep above it that has not started yet; reps below it
// still run, so when several reps fail, the lowest rep index
// deterministically wins, and only the winner's flight ring (the recorder
// its rep returned with the error) is dumped, once the pool has drained. A
// parent-context cancellation surfaces as ctx.Err() once in-flight reps
// have drained.
func (e Executor) run(ctx context.Context, n int, rep func(i int) (*obs.Recorder, error)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}
	var (
		mu       sync.Mutex
		next     int
		done     int
		reported int  // highest done value delivered to OnRep
		relaying bool // a worker is currently draining OnRep calls
		firstIdx = -1
		firstErr error
		firstRec *obs.Recorder
	)
	// notifyDone delivers OnRep(done, n) calls with the pool mutex
	// RELEASED: a slow or re-entrant callback must never stall the other
	// workers (or deadlock by re-acquiring the pool). One worker at a time
	// becomes the relay and drains every undelivered count in order, so
	// calls stay serialized and strictly monotonic (1..n, each exactly
	// once). Called with mu held; returns with mu held.
	notifyDone := func() {
		if e.OnRep == nil || relaying {
			return
		}
		relaying = true
		for reported < done {
			reported++
			d := reported
			mu.Unlock()
			e.OnRep(d, n)
			mu.Lock()
		}
		relaying = false
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				// Once a rep has failed, the reps above it cannot change
				// the outcome and are skipped; a claimed rep below it still
				// runs, since its own error would win.
				run := i < n && (firstIdx < 0 || i < firstIdx)
				mu.Unlock()
				if e.claimed != nil {
					e.claimed(i)
				}
				if !run || ctx.Err() != nil {
					return
				}
				rec, err := rep(i)
				mu.Lock()
				if err != nil {
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr, firstRec = i, err, rec
					}
					mu.Unlock()
					continue
				}
				done++
				notifyDone()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstIdx >= 0 {
		e.dumpFlight(firstIdx, firstRec, firstErr)
		return fmt.Errorf("experiment: rep %d: %w", firstIdx, firstErr)
	}
	if err := context.Cause(ctx); err != nil && err != context.Canceled {
		return fmt.Errorf("experiment: series interrupted after %d of %d reps: %w", done, n, err)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("experiment: series interrupted after %d of %d reps: %w", done, n, err)
	}
	return nil
}

// repObs returns rep i's observability options, nil when nothing would
// read its recorder. The recorder is passive, so attaching it or not cannot
// change the series' times. Only rep 0 keeps a timeline or feeds OnEvent
// (reps differ only by seed); every rep is observed when its counters or
// its flight ring have a reader.
func (e Executor) repObs(i int) *obs.Options {
	o := e.Obs
	if o == nil {
		return nil
	}
	rep0 := i == 0 && (o.Timeline || o.OnEvent != nil)
	if !rep0 && o.Reg == nil && o.FlightSink == nil && o.OnFlight == nil {
		return nil
	}
	opt := &obs.Options{Ring: o.Ring, Reg: o.Reg}
	if i == 0 {
		opt.Timeline, opt.OnEvent = o.Timeline, o.OnEvent
	}
	return opt
}

// flightMu serializes flight-recorder dumps across all executors; failures
// are rare, so one process-wide lock is not a bottleneck.
var flightMu sync.Mutex

// dumpFlight delivers a failed rep's flight ring to the configured sinks.
func (e Executor) dumpFlight(i int, rec *obs.Recorder, err error) {
	if e.Obs == nil || rec == nil || (e.Obs.FlightSink == nil && e.Obs.OnFlight == nil) {
		return
	}
	f := rec.FlightDump(fmt.Sprintf("rep %d", i), err)
	flightMu.Lock()
	defer flightMu.Unlock()
	if e.Obs.FlightSink != nil {
		_ = obs.WriteFlight(e.Obs.FlightSink, f)
	}
	if e.Obs.OnFlight != nil {
		e.Obs.OnFlight(f)
	}
}

// deliverTimeline hands rep 0's recorder to the OnTimeline callback after a
// successful series.
func (e Executor) deliverTimeline(rec *obs.Recorder) {
	if e.Obs != nil && e.Obs.Timeline && e.Obs.OnTimeline != nil && rec != nil {
		e.Obs.OnTimeline(rec)
	}
}

// checkReps rejects a negative rep count before a series sizes its result
// slices by it; zero reps is an empty series.
func checkReps(reps int) error {
	if reps < 0 {
		return fmt.Errorf("experiment: negative rep count %d", reps)
	}
	return nil
}

// Series executes reps runs of spec with index-derived seeds and returns
// the execution times in rep order and, when spec.Tracing, every rep's
// trace in rep order. Output is bit-identical for every parallelism level.
// Series keeps all the traces because its callers read them whole: service
// jobs return them, the fleet merges them by rep, and fig3 and the goldens
// encode them. Studies in this package that need only the times, or only a
// profile and worst case, run seriesEach instead and keep none.
func (e Executor) Series(ctx context.Context, spec Spec, reps int) ([]sim.Time, []*trace.Trace, error) {
	var traces []*trace.Trace
	times, err := e.seriesEach(ctx, spec, reps, func(i int, tr *trace.Trace) bool {
		if traces == nil {
			traces = make([]*trace.Trace, reps)
		}
		traces[i] = tr
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return times, traces, nil
}

// seriesEach is Series that hands each traced rep's trace to each as the
// rep finishes, instead of keeping it. Calls are serialized but not
// index-ordered. each reports whether it kept a reference to the trace; a
// trace it did not keep is overwritten by a later rep. each may be nil: the
// traces are then dropped, which is what a traced baseline that reads only
// its times wants (tracing costs simulated time, Table 1, so the baseline
// must still be traced).
func (e Executor) seriesEach(ctx context.Context, spec Spec, reps int, each func(i int, tr *trace.Trace) (kept bool)) ([]sim.Time, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		return nil, err
	}
	return e.series(ctx, spec, plan, reps, each)
}

// seriesWithPlan is Series with an explicit execution plan, bypassing
// strategy derivation (the thread-count sweeps). Traces are not kept.
func (e Executor) seriesWithPlan(ctx context.Context, spec Spec, plan *mitigate.Plan, reps int) ([]sim.Time, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return e.series(ctx, spec, plan, reps, nil)
}

// series is the one rep loop behind Series, seriesEach and seriesWithPlan:
// it compiles the runtime program once, then each rep draws a pristine
// world from the executor's pool (building one on a miss), runs the shared
// program in it, and returns the world to the pool for the next rep.
// Rep-to-world assignment is arbitrary under parallelism — which is only
// sound because a warm world is indistinguishable from a fresh one. A
// traced rep's trace goes to each (when non-nil) under a lock; the series
// keeps no reference to it, and the world reuses its storage unless each
// kept it.
func (e Executor) series(ctx context.Context, spec Spec, plan *mitigate.Plan,
	reps int, each func(i int, tr *trace.Trace) (kept bool)) ([]sim.Time, error) {
	if err := checkReps(reps); err != nil {
		return nil, err
	}
	times := make([]sim.Time, reps)
	pool := e.withWorlds().Worlds
	key := worldKeyFor(spec)
	prog := spec.compile(plan)
	var (
		rec0   *obs.Recorder
		eachMu sync.Mutex
	)
	err := e.run(ctx, reps, func(i int) (*obs.Recorder, error) {
		s := spec
		s.Seed = SeedAt(spec.Seed, i)
		if o := e.repObs(i); o != nil {
			s.Obs = o
		}
		w := pool.get(key)
		res, err := w.run(s, plan, prog)
		if err != nil {
			pool.put(w)
			return res.Obs, err
		}
		if i == 0 {
			rec0 = res.Obs
		}
		times[i] = res.ExecTime
		kept := false
		if each != nil && res.Trace != nil {
			eachMu.Lock()
			kept = each(i, res.Trace)
			eachMu.Unlock()
		}
		if !kept {
			w.dropTrace()
		}
		pool.put(w)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	e.deliverTimeline(rec0)
	return times, nil
}

// cellTracker counts completed study cells and forwards them to OnCell.
// Studies advance it from their (sequential) cell loops.
type cellTracker struct {
	done, total int
	cb          ProgressFunc
}

// cells builds a tracker for a study with the given cell count.
func (e Executor) cells(total int) *cellTracker {
	return &cellTracker{total: total, cb: e.OnCell}
}

// finish marks one more cell complete.
func (c *cellTracker) finish(label string) {
	c.done++
	if c.cb != nil {
		c.cb(c.done, c.total, label)
	}
}
