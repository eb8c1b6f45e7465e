package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one tracked submission. Its exported fields other than ID,
// Spec and Hash change under the server's lock; read them through
// Server.Status.
type Job struct {
	ID       string
	Spec     JobSpec // normalized
	Hash     string
	State    JobState
	Cached   bool // result served without an engine execution
	Err      string
	Created  time.Time
	Started  time.Time
	Finished time.Time

	srv    *Server
	result []byte
	cancel context.CancelFunc
	events *EventLog

	// repsDone/repsTotal mirror the runner's Progress reports for the
	// status endpoint; the SSE stream carries the same numbers live.
	repsDone, repsTotal int
	subs                []SubStatus
}

// Runner does a job's work: given a running job, it returns the payload
// the cache stores under the job's hash. Everything else in the job's
// life — IDs, queue, states, single-flight, timeout, cancellation, SSE and
// metrics — belongs to the Server, so every runner shares one lifecycle.
// A runner reports progress, sub-job placement and derived cache entries
// through the Job's methods, and must return promptly once ctx ends.
type Runner interface {
	Run(ctx context.Context, job *Job) ([]byte, error)
}

// Progress records done of total reps complete. Counts only grow, so
// reporters that race cannot make the status or the stream regress.
func (j *Job) Progress(done, total int) {
	j.srv.mu.Lock()
	if done > j.repsDone {
		j.repsDone = done
	}
	j.repsTotal = total
	j.srv.mu.Unlock()
	j.events.PublishProgress(done, total)
}

// SetSubJobs sets the job's sub-job table, reported as sub_jobs in its
// status.
func (j *Job) SetSubJobs(subs []SubStatus) {
	j.srv.mu.Lock()
	j.subs = append([]SubStatus(nil), subs...)
	j.srv.mu.Unlock()
}

// UpdateSub applies f to sub-job i and returns the updated entry.
func (j *Job) UpdateSub(i int, f func(*SubStatus)) SubStatus {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	f(&j.subs[i])
	return j.subs[i]
}

// Store saves data as the derived cache entry name next to the job's
// result (see rescache.DerivedKey): "tl" is the timeline GET .../timeline
// serves, "tl-<source>" one analysis source's evidence.
func (j *Job) Store(name string, data []byte) error {
	if err := j.srv.cache.Put(rescache.DerivedKey(j.Hash, name), data); err != nil {
		return fmt.Errorf("service: storing %s: %w", name, err)
	}
	return nil
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	SpecHash string   `json:"spec_hash"`
	Cached   bool     `json:"cached"`
	Error    string   `json:"error,omitempty"`
	// RepsDone/RepsTotal report rep-level progress of a running job (0/0
	// until the first rep completes; sub-job aware fleet clients aggregate
	// them across shards).
	RepsDone  int `json:"reps_done,omitempty"`
	RepsTotal int `json:"reps_total,omitempty"`
	// SubJobs is a fleet job's per-slice placement (see internal/fleet).
	SubJobs []SubStatus `json:"sub_jobs,omitempty"`
}

// SubStatus is the wire status of one sub-job slice of a fleet job.
type SubStatus struct {
	Offset  int      `json:"offset"`
	Reps    int      `json:"reps"`
	Hash    string   `json:"hash"`
	Node    string   `json:"node,omitempty"`
	JobID   string   `json:"job_id,omitempty"`
	State   JobState `json:"state,omitempty"`
	Cached  bool     `json:"cached,omitempty"`
	Retries int      `json:"retries,omitempty"`
}

// Config parameterizes a Server.
type Config struct {
	// CacheDir roots the on-disk result store ("" = memory-only cache).
	CacheDir string
	// MemEntries bounds the in-memory cache tier (default 256).
	MemEntries int
	// QueueSize bounds the pending-job queue (default 64).
	QueueSize int
	// Workers is the number of jobs executed concurrently (default 1:
	// each job already fans its reps over the executor's pool).
	Workers int
	// Parallelism is the per-job executor pool size (0 = executor
	// default: GOMAXPROCS).
	Parallelism int
	// JobTimeout bounds one job's execution (default 10 minutes).
	JobTimeout time.Duration
	// MaxReps rejects specs with more repetitions (default 100000).
	MaxReps int
	// FlightRing is the per-rep flight-recorder ring size (0 = the obs
	// package default). The ring is always armed: when a rep fails, its
	// last scheduling events are retained for GET /debug/flightrecorder.
	FlightRing int
	// EventKeep bounds each job's SSE event ring (0 = DefaultEventKeep).
	// Reconnecting clients whose Last-Event-ID fell off the ring are
	// re-synchronized with a progress snapshot instead of a replay.
	EventKeep int
}

func (c Config) withDefaults() Config {
	if c.MemEntries <= 0 {
		c.MemEntries = 256
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 100000
	}
	return c
}

// finishedKeep bounds how many finished jobs a server remembers. Each one
// holds its result bytes and its SSE event ring, so a long-running server
// forgets the oldest finished job once more than finishedKeep have
// finished; its ID then answers 404, while its result stays in the cache
// under its spec hash. Queued and running jobs are never forgotten.
const finishedKeep = 1024

// flightKeep bounds how many flight dumps the server retains for
// /debug/flightrecorder (newest win).
const flightKeep = 16

// flightLog retains the most recent flight-recorder dumps from failed reps.
type flightLog struct {
	mu    sync.Mutex
	dumps []obs.Flight
}

func (l *flightLog) add(f obs.Flight) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dumps = append(l.dumps, f)
	if n := len(l.dumps); n > flightKeep {
		l.dumps = append(l.dumps[:0], l.dumps[n-flightKeep:]...)
	}
}

func (l *flightLog) list() []obs.Flight {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Non-nil even when empty so the debug endpoint serves [] rather
	// than null.
	return append([]obs.Flight{}, l.dumps...)
}

// Server owns the job queue, the worker pool, and the result cache; its
// Runner does each job's work. Create with New (a daemon) or NewServer,
// serve its Handler, and stop with Drain (graceful) or Close.
type Server struct {
	cfg    Config
	runner Runner
	cache  *rescache.Cache
	met    *metrics
	// runReg holds the runner's metric families: the simulation kernel's
	// repro_* counters accumulated across a daemon's executions, or a
	// coordinator's noisefleet_* families. /metrics renders it after the
	// service families.
	runReg  *obs.Registry
	flights *flightLog

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*Job
	// finished lists the IDs of the remembered finished jobs, oldest
	// first (see finishedKeep).
	finished []string
	nextID   uint64
	queue    chan *Job
	draining bool

	workers sync.WaitGroup

	// testHookJobUpdate, when non-nil, is called after every job state
	// transition. Tests use it to wait on state changes without wall-clock
	// polling. Set it before submitting. The "queued" call runs with the
	// server mutex held, before the job enters the queue, so it must not
	// call back into the Server; every other call runs with the mutex
	// released. A job's calls therefore start with "queued" (or "done", for
	// a result served from the cache at submit time), and the worker's
	// calls for it follow.
	testHookJobUpdate func(id string, state JobState)
	// testHookSubmitted, when non-nil, is called by the submit routes after
	// the job is enqueued (or served from the cache) and before its status
	// is read for the response, with the server mutex released.
	testHookSubmitted func(id string)
}

// New builds a daemon: a Server whose jobs run on the local engine.
func New(cfg Config) (*Server, error) { return NewServer(cfg, nil, nil) }

// NewServer builds a Server whose jobs run on runner, and starts its
// workers. A nil runner executes jobs on the local engine and publishes
// the kernel's counters into the run registry. reg is that registry, where
// a runner of its own publishes its families (nil = a fresh one).
func NewServer(cfg Config, runner Runner, reg *obs.Registry) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := rescache.New(cfg.CacheDir, cfg.MemEntries)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, runner: runner, cache: cache, met: newMetrics(nil),
		runReg: reg, flights: &flightLog{},
		baseCtx: ctx, baseCancel: cancel,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueSize),
	}
	if s.runner == nil {
		s.runner = &engineRunner{
			parallelism: cfg.Parallelism, ring: cfg.FlightRing, reg: reg, flights: s.flights,
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s, nil
}

// Metrics returns a snapshot of the service and cache counters.
func (s *Server) Metrics() Snapshot {
	return s.met.snapshot(len(s.queue), s.cache.Stats())
}

// setState moves j to state and publishes the transition on the job's
// event stream. Call with the server mutex held, so transitions reach the
// stream in the order they happen.
func (j *Job) setState(state JobState) {
	j.State = state
	j.events.PublishState(state)
}

// notify calls the test hook for a transition setState published. Call
// with the server mutex released, except for "queued" (see
// testHookJobUpdate).
func (s *Server) notify(j *Job, state JobState) {
	if s.testHookJobUpdate != nil {
		s.testHookJobUpdate(j.ID, state)
	}
}

// retire records that j just reached a terminal state and forgets the
// oldest finished job beyond finishedKeep. Call with the server mutex held.
func (s *Server) retire(j *Job) {
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > finishedKeep {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// errDraining rejects submissions during shutdown.
var errDraining = errors.New("service: draining, not accepting jobs")

// errQueueFull rejects submissions when the bounded queue is at capacity.
var errQueueFull = errors.New("service: job queue full")

// Submit validates, normalizes and enqueues a spec. When the result is
// already cached the returned job is terminal immediately — the stored
// bytes are attached without re-execution.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.submit(spec)
	return job, err
}

// submit is Submit, also reporting whether the job was served from the
// cache at submit time. Only that answer decides a submission's HTTP
// status: a job the workers finish before the handler reads its status
// was still accepted, not served from cache.
func (s *Server) submit(spec JobSpec) (*Job, bool, error) {
	spec.Normalize()
	if err := spec.Validate(s.cfg.MaxReps); err != nil {
		return nil, false, err
	}
	hash, err := SpecHash(&spec)
	if err != nil {
		return nil, false, err
	}

	data, cached := s.cache.Get(hash)
	now := time.Now()
	job := &Job{srv: s, Spec: spec, Hash: hash, Created: now, events: NewEventLog(s.cfg.EventKeep)}

	// The job gets its ID, joins s.jobs and publishes its first state in
	// the critical section that enqueues or completes it. A worker takes
	// s.mu before it publishes "running", so "queued" always comes first —
	// on the event stream and at the test hook, which sees it before the
	// enqueue — and a rejected submission leaves no job behind.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejected.Inc()
		return nil, false, errDraining
	}
	s.met.submitted.Inc()
	if !cached && len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.met.rejected.Inc()
		return nil, false, errQueueFull
	}
	s.nextID++
	job.ID = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[job.ID] = job
	if !cached {
		job.setState(StateQueued)
		s.notify(job, StateQueued)
		s.queue <- job // cannot block: every send holds s.mu, and the queue had room
		s.mu.Unlock()
		return job, false, nil
	}
	// A cached result completes the job at submit time.
	job.Cached, job.result = true, data
	job.Started, job.Finished = now, now
	job.setState(StateDone)
	s.retire(job)
	s.mu.Unlock()
	s.met.jobStarted()
	s.met.jobFinished(StateDone, true, 0)
	s.notify(job, StateDone)
	return job, true, nil
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns the wire status of a job.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{
		ID: j.ID, State: j.State, SpecHash: j.Hash, Cached: j.Cached, Error: j.Err,
		RepsDone: j.repsDone, RepsTotal: j.repsTotal,
		SubJobs: append([]SubStatus(nil), j.subs...),
	}, true
}

// Events returns the job's SSE event log.
func (s *Server) Events(id string) (*EventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Result returns the payload bytes of a finished job.
func (s *Server) Result(id string) ([]byte, JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.result, j.State, true
}

// Timeline returns the stored Chrome-trace timeline of a job. found reports
// whether the job exists; data is nil when the job is not done yet or never
// recorded a timeline (spec without "timeline": true).
func (s *Server) Timeline(id string) (data []byte, state JobState, found bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, "", false
	}
	state, hash := j.State, j.Hash
	s.mu.Unlock()
	if state != StateDone {
		return nil, state, true
	}
	data, _ = s.cache.Get(rescache.DerivedKey(hash, "tl"))
	return data, state, true
}

// FlightDumps returns the retained flight-recorder dumps of failed reps,
// oldest first.
func (s *Server) FlightDumps() []obs.Flight { return s.flights.list() }

// Cancel cancels a queued or running job. Canceling a terminal job is a
// no-op; the returned state is the job's state after the call.
func (s *Server) Cancel(id string) (JobState, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", false
	}
	var cancel context.CancelFunc
	canceledQueued := false
	switch j.State {
	case StateQueued:
		j.setState(StateCanceled)
		j.Finished = time.Now()
		s.met.canceled.Inc()
		s.retire(j)
		canceledQueued = true
	case StateRunning:
		cancel = j.cancel
	}
	state := j.State
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if canceledQueued {
		s.notify(j, StateCanceled)
	}
	return state, true
}

// runJob executes one dequeued job through the cache.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	s.mu.Lock()
	if job.State != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.setState(StateRunning)
	job.Started = time.Now()
	job.cancel = cancel
	job.repsTotal = job.Spec.TotalReps()
	s.mu.Unlock()
	s.met.jobStarted()
	s.notify(job, StateRunning)

	data, hit, err := s.cache.GetOrCompute(ctx, job.Hash, func(ctx context.Context) ([]byte, error) {
		s.met.executions.Inc()
		return s.runner.Run(ctx, job)
	})

	now := time.Now()
	s.mu.Lock()
	job.Finished = now
	state := StateDone
	switch {
	case err == nil:
		job.Cached = hit
		job.result = data
	case errors.Is(err, context.Canceled):
		state = StateCanceled
		job.Err = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		state = StateFailed
		job.Err = fmt.Sprintf("timed out after %v", s.cfg.JobTimeout)
	default:
		state = StateFailed
		job.Err = err.Error()
	}
	job.setState(state)
	cached := job.Cached
	latency := job.Finished.Sub(job.Started).Seconds()
	s.retire(job)
	s.mu.Unlock()
	s.met.jobFinished(state, cached, latency)
	s.notify(job, state)
}

// engineRunner runs jobs on this process's engine: the daemon's runner.
type engineRunner struct {
	parallelism, ring int
	reg               *obs.Registry
	flights           *flightLog
}

// Run executes the job's series, cluster runs or analysis sweep and
// encodes the result payload.
func (r *engineRunner) Run(ctx context.Context, job *Job) ([]byte, error) {
	// Observability is always armed: the recorder is passive (results stay
	// byte-identical), the flight ring captures the last scheduling events of
	// any failing rep, and the kernel counters accumulate on the server
	// registry. The full timeline is recorded only when the spec asks.
	var timeline bytes.Buffer
	exec := experiment.Executor{Parallelism: r.parallelism, Obs: &experiment.ObsOptions{
		Timeline: job.Spec.Timeline,
		Ring:     r.ring,
		Reg:      r.reg,
		OnFlight: r.flights.add,
		OnTimeline: func(rec *obs.Recorder) {
			_ = rec.WriteChromeJSON(&timeline)
		},
	}}
	// Rep completions feed the job's SSE stream and status fields. OnRep
	// calls are serialized and monotone, so the stream inherits both.
	exec.OnRep = job.Progress
	if job.Spec.Analyze != nil {
		return runAnalysis(ctx, job, exec)
	}
	if job.Spec.Cluster != nil {
		results, err := exec.ClusterSeries(ctx, *job.Spec.Cluster, job.Spec.Seed, job.Spec.Reps)
		if err != nil {
			return nil, err
		}
		if err := storeTimeline(job, &timeline); err != nil {
			return nil, err
		}
		return BuildClusterResult(job.Hash, job.Spec, results)
	}
	spec, err := job.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	times, traces, err := exec.Series(ctx, spec, job.Spec.Reps)
	if err != nil {
		return nil, err
	}
	if err := storeTimeline(job, &timeline); err != nil {
		return nil, err
	}
	return BuildResult(job.Hash, job.Spec, times, traces)
}

// BuildResult encodes the canonical result payload of a kernel series: the
// exact bytes the cache stores and /result serves. It is exported so the
// fleet merger reassembles sub-job slices through the same encoder — merge
// equality with a single-node run then holds by construction rather than by
// convention.
func BuildResult(hash string, spec JobSpec, times []sim.Time, traces []*trace.Trace) ([]byte, error) {
	res := JobResult{
		SpecHash:     hash,
		ModelVersion: experiment.ModelVersion,
		Spec:         spec,
		TimesNs:      make([]int64, len(times)),
		Summary:      stats.SummarizeTimes(times),
	}
	for i, t := range times {
		res.TimesNs[i] = int64(t)
	}
	if spec.Tracing {
		res.Traces = traces
	}
	return json.Marshal(res)
}

// BuildClusterResult is BuildResult for cluster jobs: TimesNs carries the
// per-rep batch completion times and the summary is computed over them in
// milliseconds, exactly as a single-node execution encodes it.
func BuildClusterResult(hash string, spec JobSpec, results []*cluster.Result) ([]byte, error) {
	res := JobResult{
		SpecHash:     hash,
		ModelVersion: experiment.ModelVersion,
		Spec:         spec,
		TimesNs:      make([]int64, len(results)),
		Cluster:      results,
	}
	batches := make([]float64, len(results))
	for i, r := range results {
		res.TimesNs[i] = r.BatchNs
		batches[i] = float64(r.BatchNs) / 1e6
	}
	res.Summary = stats.Summarize(batches)
	return json.Marshal(res)
}

// runAnalysis runs a bottleneck-analysis job: the full differential
// sweep through analyze.Run, with the artifact bytes as the cached result
// payload. Evidence timelines land as derived cache entries — one per
// source under "tl-<source>", plus the bottleneck source's copy under the
// plain "tl" key so GET .../timeline serves the headline evidence exactly
// like a single-node job's. analyze.Run forces its own per-cell timeline
// recording, so the executor's OnTimeline buffer stays untouched here.
func runAnalysis(ctx context.Context, job *Job, exec experiment.Executor) ([]byte, error) {
	out, err := analyze.Run(ctx, exec, *job.Spec.Analyze)
	if err != nil {
		return nil, err
	}
	for src, tl := range out.Timelines {
		if err := job.Store("tl-"+src, tl); err != nil {
			return nil, err
		}
	}
	if tl, ok := out.Timelines[out.Artifact.Bottleneck]; ok {
		if err := job.Store("tl", tl); err != nil {
			return nil, err
		}
	}
	return out.Artifact.Encode()
}

// AnalysisTimeline returns one stored evidence timeline of an analysis job
// (nil data when the job is unfinished, not an analysis, or never exported
// evidence for that source).
func (s *Server) AnalysisTimeline(id, source string) (data []byte, state JobState, found bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, "", false
	}
	state, hash := j.State, j.Hash
	s.mu.Unlock()
	if state != StateDone {
		return nil, state, true
	}
	data, _ = s.cache.Get(rescache.DerivedKey(hash, "tl-"+source))
	return data, state, true
}

// storeTimeline persists a recorded timeline as a derived cache entry next
// to the result: a later cache hit for this spec can still serve it.
func storeTimeline(job *Job, timeline *bytes.Buffer) error {
	if timeline.Len() == 0 {
		return nil
	}
	return job.Store("tl", timeline.Bytes())
}

// Drain stops accepting submissions and waits for queued and running jobs
// to finish. When ctx expires first, running jobs are canceled and the
// drain still waits for workers to observe the cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	if already {
		return errors.New("service: already draining")
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force-cancel in-flight jobs
		<-done
		return ctx.Err()
	}
}

// Close force-stops the server: cancels every running job and waits for
// the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.workers.Wait()
}
