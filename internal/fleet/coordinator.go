package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/analyze"
	"repro/internal/service"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Backends are the noiselabd base URLs forming the consistent-hash ring.
	Backends []string
	// Replicas is the per-backend vnode count (0 = DefaultReplicas).
	Replicas int
	// SubJobs is the fan-out width: how many sub-jobs a fleet job splits
	// into (0 = one per backend). Clamped to the job's rep count.
	SubJobs int
	// MemEntries bounds the coordinator's merged-result cache (default 256).
	MemEntries int
	// JobTimeout bounds one fleet job end to end (default 10 minutes).
	JobTimeout time.Duration
	// MaxReps rejects specs with more repetitions (default 100000).
	MaxReps int
	// EventKeep bounds each fleet job's SSE event ring (0 = service default).
	EventKeep int
	// Client is the HTTP client used for backend calls (nil = the
	// service.Client default, with dial and response-header timeouts).
	Client *http.Client
}

// Backend is the coordinator's client for one noiselabd node: the
// service's one job client, under the name the coordinator's backends, the
// fleet tests and perfbench/serve.go use.
type Backend = service.Client

// queueSize bounds the coordinator's job queue. A fleet job's worker
// mostly waits on backends, so the coordinator runs one worker per queue
// slot: up to queueSize jobs run at once, as many more wait, and a
// submission past that gets 503.
const queueSize = 64

// subCancelTimeout bounds the best-effort cancel of an abandoned sub-job.
const subCancelTimeout = 2 * time.Second

// Coordinator is noiselabd's Server running the fleet runner: its jobs
// fan out across noiselabd backends instead of executing locally. Create
// with New, serve its Handler, stop with Close.
type Coordinator struct {
	*service.Server
	run *runner
}

// New builds a Coordinator over the given backends.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	if cfg.SubJobs <= 0 {
		cfg.SubJobs = len(cfg.Backends)
	}
	ring := NewRing(cfg.Backends, cfg.Replicas)
	c := &Coordinator{}
	r := &runner{
		ring: ring, width: cfg.SubJobs,
		met: newMetrics(ring.Members(), func() uint64 {
			// Jobs the server answered from merged results without a
			// fan-out of their own. Only the server's /metrics renders
			// this, so c.Server is set by then.
			return c.Metrics().CacheHits
		}),
		backends: make(map[string]*Backend, len(cfg.Backends)),
		down:     make(map[string]bool),
	}
	for _, name := range ring.Members() {
		r.backends[name] = &Backend{Name: name, Client: cfg.Client}
	}
	srv, err := service.NewServer(service.Config{
		MemEntries: cfg.MemEntries, QueueSize: queueSize, Workers: queueSize,
		JobTimeout: cfg.JobTimeout, MaxReps: cfg.MaxReps, EventKeep: cfg.EventKeep,
	}, r, r.met.reg)
	if err != nil {
		return nil, err
	}
	c.Server, c.run = srv, r
	return c, nil
}

// runner is the fleet's service.Runner: it splits a job into sub-jobs,
// runs each on its ring owner with failover, and merges the slices.
type runner struct {
	ring     *Ring
	width    int
	met      *metrics
	backends map[string]*Backend

	mu   sync.Mutex
	down map[string]bool // the coordinator's view of backend liveness

	// testHookSubUpdate is called after every sub-job status change with
	// no lock held. Set before submitting.
	testHookSubUpdate func(id string, sub service.SubStatus)
}

// fleetRun is one fleet job in flight: the service job it reports into
// and the highest rep count each slice has reported.
type fleetRun struct {
	job   *service.Job
	total int

	mu   sync.Mutex
	done []int
}

// landing is where one slice ran and what it returned.
type landing struct {
	b       *Backend
	id      string
	payload []byte
	err     error
}

// Run fans the sub-jobs out, merges the slices, and mirrors the slices'
// timelines into the job's derived cache entries.
func (r *runner) Run(ctx context.Context, job *service.Job) ([]byte, error) {
	subs, err := Split(job.Spec, r.width)
	if err != nil {
		return nil, err
	}
	statuses := make([]service.SubStatus, len(subs))
	for i, sub := range subs {
		statuses[i] = service.SubStatus{Offset: sub.Offset, Reps: sub.Spec.TotalReps(), Hash: sub.Hash}
	}
	job.SetSubJobs(statuses)
	r.met.fanout.Observe(float64(len(subs)))

	run := &fleetRun{job: job, total: job.Spec.TotalReps(), done: make([]int, len(subs))}
	out := make([]landing, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = r.runSub(ctx, run, i, subs[i])
		}(i)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(subs))
	for i, l := range out {
		// Deterministic error selection: the lowest failing slice wins,
		// mirroring the executor's lowest-failing-rep rule.
		if l.err != nil {
			return nil, l.err
		}
		payloads[i] = l.payload
	}
	data, err := Merge(job.Hash, job.Spec, subs, payloads)
	if err != nil {
		return nil, err
	}
	if job.Spec.Timeline {
		// Only the offset-0 slice recorded a timeline.
		if tl, err := out[0].b.Timeline(ctx, out[0].id); err == nil && len(tl) > 0 {
			if err := job.Store("tl", tl); err != nil {
				return nil, err
			}
		}
	}
	if job.Spec.Analyze != nil && job.Spec.Analyze.Timeline {
		if err := mirrorAnalysisTimelines(ctx, job, subs, out, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// mirrorAnalysisTimelines pulls each source's evidence timeline from the
// shard that ran it and stores it under the derived keys noiselabd uses
// ("tl-<source>", plus the bottleneck source's copy under "tl"), so the
// coordinator's timeline endpoints serve exactly what a single daemon
// would. Fetches are best-effort — the merged artifact is already
// complete — but a failed cache write fails the job, as on a single node.
func mirrorAnalysisTimelines(ctx context.Context, job *service.Job, subs []SubJob, out []landing, merged []byte) error {
	art, err := analyze.Decode(merged)
	if err != nil {
		return fmt.Errorf("fleet: decoding merged analysis artifact: %w", err)
	}
	for i, sub := range subs {
		for _, src := range sub.Spec.Analyze.EffectiveSources() {
			tl, err := out[i].b.AnalysisTimeline(ctx, out[i].id, src)
			if err != nil || len(tl) == 0 {
				continue
			}
			if err := job.Store("tl-"+src, tl); err != nil {
				return err
			}
			if src == art.Bottleneck {
				if err := job.Store("tl", tl); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runSub executes one sub-job, walking the ring's failover sequence: the
// slice's owner first, then each next distinct node clockwise. A backend
// that cannot be reached, loses the job mid-stream, or cannot serve the
// result is marked down and the slice moves on; a deterministic execution
// failure is terminal everywhere, so it propagates instead of retrying.
func (r *runner) runSub(ctx context.Context, run *fleetRun, idx int, sub SubJob) landing {
	var lastErr error
	for attempt, name := range r.candidates(sub.Hash) {
		if ctx.Err() != nil {
			return landing{err: ctx.Err()}
		}
		if attempt > 0 {
			r.met.subRetries.Inc()
			r.updateSub(run, idx, func(s *service.SubStatus) { s.Retries++ })
		}
		b := r.backends[name]
		id, payload, err := r.runSubOn(ctx, run, idx, sub, b)
		if err == nil {
			r.markUp(name, true)
			return landing{b: b, id: id, payload: payload}
		}
		if ctx.Err() != nil {
			return landing{err: ctx.Err()}
		}
		var exec *execFailure
		if errors.As(err, &exec) {
			return landing{err: fmt.Errorf("fleet: sub-job %d (offset %d) failed on %s: %s", idx, sub.Offset, name, exec.msg)}
		}
		r.markUp(name, false)
		lastErr = err
	}
	return landing{err: fmt.Errorf("fleet: sub-job %d (offset %d): all backends failed, last: %w", idx, sub.Offset, lastErr)}
}

// execFailure marks a deterministic execution failure (the backend ran the
// slice and the engine said no) — retrying on another node cannot help.
type execFailure struct{ msg string }

func (e *execFailure) Error() string { return e.msg }

// runSubOn runs one sub-job attempt against one backend: submit, follow the
// SSE stream to a terminal state, fetch the stored bytes. Once the backend
// has accepted the sub-job, an end of ctx (cancel, timeout, Close) cancels
// the backend's copy too, so no abandoned slice keeps a shard busy.
func (r *runner) runSubOn(ctx context.Context, run *fleetRun, idx int, sub SubJob, b *Backend) (string, []byte, error) {
	r.met.subJobs.Inc()
	st, err := b.Submit(ctx, sub.Spec)
	if err != nil {
		return "", nil, err
	}
	defer func() {
		if ctx.Err() != nil {
			cctx, done := context.WithTimeout(context.WithoutCancel(ctx), subCancelTimeout)
			_, _ = b.Cancel(cctx, st.ID) // best-effort: the slice is abandoned either way
			done()
		}
	}()
	r.updateSub(run, idx, func(s *service.SubStatus) {
		s.Node, s.JobID, s.State = b.Name, st.ID, st.State
	})
	state := st.State
	if !state.Terminal() {
		state, err = b.WaitDone(ctx, st.ID, func(done, total int) {
			run.progress(idx, done)
			r.updateSub(run, idx, func(s *service.SubStatus) { s.State = service.StateRunning })
		})
		if err != nil {
			return "", nil, err
		}
	}
	if state != service.StateDone {
		// The engine is deterministic: a failed slice fails on every node.
		final, serr := b.Status(ctx, st.ID)
		msg := "job " + string(state)
		if serr == nil && final.Error != "" {
			msg = final.Error
		}
		return "", nil, &execFailure{msg: msg}
	}
	final, err := b.Status(ctx, st.ID)
	if err != nil {
		return "", nil, err
	}
	payload, err := b.Result(ctx, st.ID)
	if err != nil {
		return "", nil, err
	}
	if final.Cached {
		r.met.subCacheHits.Inc()
	}
	run.progress(idx, sub.Spec.TotalReps())
	r.updateSub(run, idx, func(s *service.SubStatus) {
		s.State, s.Cached = service.StateDone, final.Cached
	})
	return st.ID, payload, nil
}

// candidates returns the failover walk for a placement key with known-down
// backends moved to the back (stable within each class). Down nodes stay in
// the list — a sub-job would rather probe a recovering node than fail.
func (r *runner) candidates(key string) []string {
	seq := r.ring.Seq(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(seq, func(i, j int) bool {
		return !r.down[seq[i]] && r.down[seq[j]]
	})
	return seq
}

// markUp records the coordinator's liveness view after a backend contact.
func (r *runner) markUp(name string, up bool) {
	r.mu.Lock()
	r.down[name] = !up
	r.mu.Unlock()
	r.met.setBackendUp(name, up)
}

// progress folds one slice's rep completions into the job's. Per-slice
// counts only grow: failover restarts a slice from zero on the new node,
// and the job-level count must not regress.
func (f *fleetRun) progress(idx, done int) {
	f.mu.Lock()
	if done > f.done[idx] {
		f.done[idx] = done
	}
	sum := 0
	for _, d := range f.done {
		sum += d
	}
	f.mu.Unlock()
	f.job.Progress(sum, f.total)
}

// updateSub mutates one sub-job's wire status and fires the test hook.
func (r *runner) updateSub(run *fleetRun, idx int, f func(*service.SubStatus)) {
	snap := run.job.UpdateSub(idx, f)
	if r.testHookSubUpdate != nil {
		r.testHookSubUpdate(run.job.ID, snap)
	}
}
