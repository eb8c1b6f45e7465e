package service

// End-to-end tests of the HTTP API over httptest, exercising the issue's
// contract: submit → poll → fetch, cache hits served byte-identical without
// re-execution, cancellation mid-run, malformed-spec 400s, and the
// graceful-shutdown drain. The whole file runs under -race in CI.
//
// State transitions are observed through the server's job-update test hook
// (condition-based waiting), not by polling status over wall-clock sleeps —
// the hook fires on every transition, so the tests are not timing-sensitive.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// liveServers tracks every server the tests create so TestMain can dump
// their flight-recorder rings if the package fails — CI uploads the file
// as an artifact to make scheduling-level failure forensics possible
// without a rerun.
var liveServers struct {
	sync.Mutex
	srvs []*Server
}

func TestMain(m *testing.M) {
	code := m.Run()
	if code != 0 {
		var dumps []obs.Flight
		liveServers.Lock()
		for _, s := range liveServers.srvs {
			dumps = append(dumps, s.FlightDumps()...)
		}
		liveServers.Unlock()
		if data, err := json.MarshalIndent(dumps, "", "  "); err == nil {
			_ = os.WriteFile("flightrecorder-dump.json", data, 0o644)
		}
	}
	os.Exit(code)
}

// jobWatcher turns the server's testHookJobUpdate callbacks into
// condition-based waiting: await blocks on a channel that is pulsed on every
// state transition, so no test spins on wall-clock polls.
type jobWatcher struct {
	mu     chan struct{} // 1-buffered semaphore (usable from the hook)
	last   map[string]JobState
	change chan struct{} // closed and replaced on every update
}

func newJobWatcher(srv *Server) *jobWatcher {
	w := &jobWatcher{
		mu:     make(chan struct{}, 1),
		last:   make(map[string]JobState),
		change: make(chan struct{}),
	}
	w.mu <- struct{}{}
	srv.testHookJobUpdate = func(id string, state JobState) {
		<-w.mu
		w.last[id] = state
		close(w.change)
		w.change = make(chan struct{})
		w.mu <- struct{}{}
	}
	return w
}

// await blocks until pred holds for the job's last observed state and
// returns that state. It fails the test after a generous deadline — reached
// only when the transition genuinely never happens.
func (w *jobWatcher) await(t *testing.T, id string, pred func(JobState) bool) JobState {
	t.Helper()
	timeout := time.After(120 * time.Second)
	for {
		<-w.mu
		st, ok := w.last[id]
		ch := w.change
		w.mu <- struct{}{}
		if ok && pred(st) {
			return st
		}
		select {
		case <-ch:
		case <-timeout:
			t.Fatalf("job %s: timed out waiting for state change (last %q)", id, st)
		}
	}
}

// newTestServer builds a Server plus its httptest frontend and state watcher.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *jobWatcher) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveServers.Lock()
	liveServers.srvs = append(liveServers.srvs, srv)
	liveServers.Unlock()
	w := newJobWatcher(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, w
}

// tinySpec is a fast deterministic spec for tests.
func tinySpec(seed uint64, reps int) JobSpec {
	return JobSpec{
		Platform: "tiny-test", Workload: "schedbench", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: seed, Reps: reps,
	}
}

// submit posts a spec and decodes the status, asserting the HTTP code is
// one of want.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec, want ...int) JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	ok := false
	for _, w := range want {
		ok = ok || resp.StatusCode == w
	}
	if !ok {
		t.Fatalf("submit: HTTP %d (want %v): %s", resp.StatusCode, want, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit: decoding %q: %v", data, err)
	}
	return st
}

// waitTerminal blocks on the watcher until the job finishes, then fetches
// the final status over the API.
func waitTerminal(t *testing.T, ts *httptest.Server, w *jobWatcher, id string) JobStatus {
	t.Helper()
	w.await(t, id, JobState.Terminal)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fetchResult downloads the raw result payload.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, data)
	}
	return data
}

func TestSubmitPollFetch(t *testing.T) {
	_, ts, w := newTestServer(t, Config{})
	st := submit(t, ts, tinySpec(7, 10), http.StatusAccepted)
	if st.ID == "" || st.SpecHash == "" {
		t.Fatalf("submit status incomplete: %+v", st)
	}
	st = waitTerminal(t, ts, w, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (err %q), want done", st.State, st.Error)
	}
	data := fetchResult(t, ts, st.ID)
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.TimesNs) != 10 || res.Summary.N != 10 {
		t.Fatalf("result has %d times, summary n=%d, want 10", len(res.TimesNs), res.Summary.N)
	}
	if res.SpecHash != st.SpecHash {
		t.Fatalf("payload hash %s != job hash %s", res.SpecHash, st.SpecHash)
	}
	for _, ns := range res.TimesNs {
		if ns <= 0 {
			t.Fatalf("non-positive exec time %d", ns)
		}
	}
}

// TestCacheHitByteIdentical is the acceptance criterion: a repeated
// submission of an identical spec is served from the cache without
// re-running the engine, byte-identical to the first execution, and
// /metrics reports the hit.
func TestCacheHitByteIdentical(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{})
	spec := tinySpec(11, 12)

	first := submit(t, ts, spec, http.StatusAccepted)
	st1 := waitTerminal(t, ts, w, first.ID)
	if st1.State != StateDone || st1.Cached {
		t.Fatalf("first run: %+v", st1)
	}
	payload1 := fetchResult(t, ts, first.ID)
	execsAfterFirst := srv.Metrics().Executions
	if execsAfterFirst != 1 {
		t.Fatalf("executions after first run = %d, want 1", execsAfterFirst)
	}

	// Second submission: semantically identical spec spelled differently
	// (model case, explicit default noise scale) must hit the cache at
	// submit time.
	spec2 := spec
	spec2.Model = "OMP"
	spec2.NoiseScale = 1.0
	second := submit(t, ts, spec2, http.StatusOK)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.SpecHash != first.SpecHash {
		t.Fatalf("hashes differ: %s vs %s", second.SpecHash, first.SpecHash)
	}
	payload2 := fetchResult(t, ts, second.ID)
	if !bytes.Equal(payload1, payload2) {
		t.Fatalf("cached payload differs from the original execution:\n%s\nvs\n%s", payload1, payload2)
	}
	if got := srv.Metrics().Executions; got != execsAfterFirst {
		t.Fatalf("cache hit re-ran the engine: executions %d -> %d", execsAfterFirst, got)
	}

	// /metrics must report the hit, plus the kernel counters the executions
	// published through the shared obs registry.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metricsBody)
	for _, want := range []string{
		"noiselabd_cache_hits_total 1",
		"noiselabd_executions_total 1",
		"noiselabd_jobs_total{state=\"done\"} 2",
		"repro_runs_total 12",
		"repro_sched_context_switches_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "noiselabd_cache_hit_ratio 0.000000") {
		t.Fatalf("/metrics hit ratio stayed zero:\n%s", text)
	}
}

// TestCacheCountsOneLookupPerJob: a new job counts one cache miss and a
// resubmit one memory hit. The worker's re-check before it computes is not
// a second lookup, so it counts neither.
func TestCacheCountsOneLookupPerJob(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{})
	spec := tinySpec(14, 4)
	if st := waitTerminal(t, ts, w, submit(t, ts, spec, http.StatusAccepted).ID); st.State != StateDone || st.Cached {
		t.Fatalf("new job: %+v", st)
	}
	if s := srv.cache.Stats(); s.Misses != 1 || s.MemHits+s.DiskHits+s.FlightHits != 0 || s.Computes != 1 {
		t.Fatalf("after a new job: %+v, want 1 miss, 1 compute, no hit", s)
	}
	if st := submit(t, ts, spec, http.StatusOK); !st.Cached {
		t.Fatalf("resubmit not served from cache: %+v", st)
	}
	if s := srv.cache.Stats(); s.Misses != 1 || s.MemHits != 1 || s.DiskHits+s.FlightHits != 0 {
		t.Fatalf("after a resubmit: %+v, want 1 miss and 1 memory hit", s)
	}
}

// TestCacheServesAcrossRestart: a new server over the same cache dir serves
// the persisted bytes without executing.
func TestCacheServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, w1 := newTestServer(t, Config{CacheDir: dir})
	spec := tinySpec(13, 8)
	st := waitTerminal(t, ts1, w1, submit(t, ts1, spec, http.StatusAccepted).ID)
	payload1 := fetchResult(t, ts1, st.ID)

	srv2, ts2, _ := newTestServer(t, Config{CacheDir: dir})
	st2 := submit(t, ts2, spec, http.StatusOK)
	if !st2.Cached {
		t.Fatalf("restart lost the cache: %+v", st2)
	}
	if !bytes.Equal(payload1, fetchResult(t, ts2, st2.ID)) {
		t.Fatal("restarted server served different bytes")
	}
	if srv2.Metrics().Executions != 0 {
		t.Fatal("restarted server re-executed a cached spec")
	}
}

// TestCancelMidRun submits a long series, waits until it is running, and
// cancels it over the API.
func TestCancelMidRun(t *testing.T) {
	_, ts, w := newTestServer(t, Config{JobTimeout: time.Minute})
	st := submit(t, ts, tinySpec(17, 50000), http.StatusAccepted)

	// Wait for the job to leave the queue.
	if got := w.await(t, st.ID, func(s JobState) bool { return s == StateRunning || s.Terminal() }); got != StateRunning {
		t.Fatalf("job finished before it could be canceled: %s", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	final := waitTerminal(t, ts, w, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s (err %q), want canceled", final.State, final.Error)
	}
	// A canceled job has no result.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: HTTP %d, want 409", rresp.StatusCode)
	}
}

// TestCancelQueuedJob cancels a job that is still waiting in the queue.
func TestCancelQueuedJob(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{Workers: 1, JobTimeout: time.Minute})
	blocker := submit(t, ts, tinySpec(19, 50000), http.StatusAccepted)
	queued := submit(t, ts, tinySpec(23, 10), http.StatusAccepted)

	if state, ok := srv.Cancel(queued.ID); !ok || state != StateCanceled {
		t.Fatalf("cancel queued: state=%s ok=%v", state, ok)
	}
	srv.Cancel(blocker.ID)
	if st := waitTerminal(t, ts, w, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}
}

// TestGracefulDrain: during a drain, running jobs finish and new
// submissions are rejected with 503.
func TestGracefulDrain(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{Workers: 2})
	st := submit(t, ts, tinySpec(29, 200), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight job must have completed with a fetchable result.
	final, ok := srv.Status(st.ID)
	if !ok || final.State != StateDone {
		t.Fatalf("job after drain: %+v (ok=%v), want done", final, ok)
	}
	if len(fetchResult(t, ts, st.ID)) == 0 {
		t.Fatal("empty result after drain")
	}

	// New submissions are rejected with 503 + Retry-After.
	body, _ := json.Marshal(tinySpec(31, 5))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestQueueFull503: the bounded queue rejects the overflow submission.
func TestQueueFull503(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{Workers: 1, QueueSize: 1, JobTimeout: time.Minute})
	blocker := submit(t, ts, tinySpec(37, 50000), http.StatusAccepted)

	// Wait until the blocker occupies the single worker so the next
	// submission parks in the queue slot.
	w.await(t, blocker.ID, func(s JobState) bool { return s == StateRunning })
	submit(t, ts, tinySpec(41, 50000), http.StatusAccepted) // fills the queue

	body, _ := json.Marshal(tinySpec(43, 5))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	if srv.Metrics().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.Metrics().Rejected)
	}
}

// TestIdenticalConcurrentSubmissions: the same spec submitted while the
// first submission is still running must not execute twice (singleflight
// behind the worker pool).
func TestIdenticalConcurrentSubmissions(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{Workers: 4})
	spec := tinySpec(47, 400)

	ids := make([]string, 4)
	for i := range ids {
		ids[i] = submit(t, ts, spec, http.StatusAccepted, http.StatusOK).ID
	}
	var payloads [][]byte
	for _, id := range ids {
		st := waitTerminal(t, ts, w, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		payloads = append(payloads, fetchResult(t, ts, id))
	}
	for i := 1; i < len(payloads); i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("payload %d differs from payload 0", i)
		}
	}
	if got := srv.Metrics().Executions; got != 1 {
		t.Fatalf("engine ran %d times for identical specs, want 1", got)
	}
}

// TestDifferentSpecsDifferentResults guards the key derivation end to end:
// a one-field change must produce a different hash and (here) different
// bytes.
func TestDifferentSpecsDifferentResults(t *testing.T) {
	_, ts, w := newTestServer(t, Config{})
	a := waitTerminal(t, ts, w, submit(t, ts, tinySpec(51, 6), http.StatusAccepted).ID)
	b := waitTerminal(t, ts, w, submit(t, ts, tinySpec(52, 6), http.StatusAccepted).ID)
	if a.SpecHash == b.SpecHash {
		t.Fatal("different seeds, same spec hash")
	}
	if bytes.Equal(fetchResult(t, ts, a.ID), fetchResult(t, ts, b.ID)) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, data)
	}
}

// TestResultDeterminismMatchesDirectRun pins the served times to a direct
// executor run of the same resolved spec: the service must not perturb the
// deterministic results it serves.
func TestResultDeterminismMatchesDirectRun(t *testing.T) {
	_, ts, w := newTestServer(t, Config{Parallelism: 3})
	spec := tinySpec(57, 9)
	st := waitTerminal(t, ts, w, submit(t, ts, spec, http.StatusAccepted).ID)
	var res JobResult
	if err := json.Unmarshal(fetchResult(t, ts, st.ID), &res); err != nil {
		t.Fatal(err)
	}

	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	times, _, err := execDirect(resolved, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(res.TimesNs) {
		t.Fatalf("len %d vs %d", len(times), len(res.TimesNs))
	}
	for i := range times {
		if int64(times[i]) != res.TimesNs[i] {
			t.Fatalf("rep %d: direct %d != served %d", i, times[i], res.TimesNs[i])
		}
	}
}

// TestResultDeterminismIODeadline pins the same direct-vs-daemon contract
// for an I/O-blocking workload running under the SCHED_DEADLINE class:
// device wait queues, IRQ wakeups and CBS throttling must replay
// identically through the service's parallel executor.
func TestResultDeterminismIODeadline(t *testing.T) {
	_, ts, w := newTestServer(t, Config{Parallelism: 3})
	spec := JobSpec{
		Platform: "tiny-test", Workload: "svcloop", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 91, Reps: 7,
		DLRuntimeNs: 400_000, DLPeriodNs: 1_000_000,
	}
	st := waitTerminal(t, ts, w, submit(t, ts, spec, http.StatusAccepted).ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (err %q), want done", st.State, st.Error)
	}
	var res JobResult
	if err := json.Unmarshal(fetchResult(t, ts, st.ID), &res); err != nil {
		t.Fatal(err)
	}

	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	times, _, err := execDirect(resolved, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(res.TimesNs) {
		t.Fatalf("len %d vs %d", len(times), len(res.TimesNs))
	}
	for i := range times {
		if int64(times[i]) != res.TimesNs[i] {
			t.Fatalf("rep %d: direct %d != served %d", i, times[i], res.TimesNs[i])
		}
	}
}

// execDirect runs the resolved spec sequentially on the executor,
// bypassing the service entirely.
func execDirect(spec experiment.Spec, reps int) ([]sim.Time, []*trace.Trace, error) {
	return experiment.Executor{Parallelism: 1}.Series(context.Background(), spec, reps)
}
