package fleet

// End-to-end fleet tests over httptest: three in-process noiselabd backends
// behind a coordinator. The distributed-determinism contract under test:
// a fleet run is byte-identical to a direct single-node run (kernel and
// cluster jobs), resubmission executes zero reps anywhere, and killing a
// backend mid-job reroutes its slices to the next ring node with the final
// payload still byte-identical. All waits are condition-based (the
// coordinator's event stream and the sub-job test hook) — no wall-clock
// sleeps. The whole file runs under -race in CI.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// testFleet is a coordinator plus its in-process backends.
type testFleet struct {
	coord     *Coordinator
	coordTS   *httptest.Server
	backends  []*service.Server
	backendTS []*httptest.Server
	watch     *subWatcher
}

// subWatcher turns the fleet runner's sub-job hook into condition-based
// waiting, mirroring the service package's jobWatcher.
type subWatcher struct {
	mu     chan struct{}
	subs   map[string]map[int]service.SubStatus // job id -> offset -> last sub status
	change chan struct{}
}

func newSubWatcher(c *Coordinator) *subWatcher {
	w := &subWatcher{
		mu:     make(chan struct{}, 1),
		subs:   make(map[string]map[int]service.SubStatus),
		change: make(chan struct{}),
	}
	w.mu <- struct{}{}
	c.run.testHookSubUpdate = func(id string, sub service.SubStatus) {
		<-w.mu
		if w.subs[id] == nil {
			w.subs[id] = make(map[int]service.SubStatus)
		}
		w.subs[id][sub.Offset] = sub
		close(w.change)
		w.change = make(chan struct{})
		w.mu <- struct{}{}
	}
	return w
}

// await blocks until pred holds over the watcher state.
func (w *subWatcher) await(t *testing.T, desc string, pred func() bool) {
	t.Helper()
	timeout := time.After(120 * time.Second)
	for {
		<-w.mu
		ok := pred()
		ch := w.change
		w.mu <- struct{}{}
		if ok {
			return
		}
		select {
		case <-ch:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", desc)
		}
	}
}

// awaitTerminal follows a job's event stream on the server at url to its
// terminal state.
func awaitTerminal(t *testing.T, url, id string) service.JobState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := (&Backend{Name: url}).WaitDone(ctx, id, nil)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", id, err)
	}
	return st
}

func (f *testFleet) awaitTerminal(t *testing.T, id string) service.JobState {
	t.Helper()
	return awaitTerminal(t, f.coordTS.URL, id)
}

// newTestFleet spins up n in-process backends and a coordinator over them.
func newTestFleet(t *testing.T, n int, backendCfg service.Config, fleetCfg Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	if backendCfg.JobTimeout == 0 {
		backendCfg.JobTimeout = 2 * time.Minute
	}
	for i := 0; i < n; i++ {
		cfg := backendCfg
		cfg.CacheDir = t.TempDir()
		srv, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		f.backends = append(f.backends, srv)
		f.backendTS = append(f.backendTS, ts)
		fleetCfg.Backends = append(fleetCfg.Backends, ts.URL)
	}
	if fleetCfg.JobTimeout == 0 {
		fleetCfg.JobTimeout = 2 * time.Minute
	}
	coord, err := New(fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.watch = newSubWatcher(coord)
	f.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		f.coordTS.Close()
		coord.Close()
		for i := range f.backends {
			f.backendTS[i].Close()
			f.backends[i].Close()
		}
	})
	return f
}

// submitFleet posts a spec to the coordinator's HTTP API.
func submitFleet(t *testing.T, ts *httptest.Server, spec service.JobSpec, want ...int) service.JobStatus {
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
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit: decoding %q: %v", data, err)
	}
	return st
}

func fetchFleetResult(t *testing.T, ts *httptest.Server, id string) []byte {
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

// directPayload runs the spec on a fresh single-node server and returns the
// stored bytes — the ground truth every fleet path must reproduce.
func directPayload(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	srv, err := service.New(service.Config{CacheDir: t.TempDir(), JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, _ := srv.Status(job.ID)
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("direct run: %s (%s)", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("direct run timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	data, _, _ := srv.Result(job.ID)
	return data
}

func backendExecutions(f *testFleet) uint64 {
	var n uint64
	for _, b := range f.backends {
		n += b.Metrics().Executions
	}
	return n
}

func coordMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(data)
}

// TestFleetByteIdenticalKernel is the acceptance criterion: a 3-backend
// fleet run of a kernel job is byte-identical to a direct single-node run.
func TestFleetByteIdenticalKernel(t *testing.T) {
	spec := kernelSpec(71, 10)
	want := directPayload(t, spec)

	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		got, _ := f.coord.Status(st.ID)
		t.Fatalf("fleet job %s: %s (%s)", st.ID, final, got.Error)
	}
	got := fetchFleetResult(t, f.coordTS, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet payload differs from single-node run:\nwant %s\ngot  %s", want, got)
	}

	// The job really fanned out: one sub-job per backend, all done.
	final, _ := f.coord.Status(st.ID)
	if len(final.SubJobs) != 3 {
		t.Fatalf("fan-out width %d, want 3", len(final.SubJobs))
	}
	for _, s := range final.SubJobs {
		if s.State != service.StateDone || s.Node == "" || s.JobID == "" {
			t.Fatalf("sub-job not completed: %+v", s)
		}
	}
	if final.RepsDone != 10 || final.RepsTotal != 10 {
		t.Fatalf("aggregated progress %d/%d, want 10/10", final.RepsDone, final.RepsTotal)
	}
	text := coordMetrics(t, f.coordTS)
	for _, wantLine := range []string{
		"noisefleet_subjobs_total 3",
		`noiselabd_jobs_total{state="done"} 1`,
		"noisefleet_subjob_retries_total 0",
	} {
		if !strings.Contains(text, wantLine) {
			t.Fatalf("/metrics missing %q:\n%s", wantLine, text)
		}
	}
}

// TestFleetByteIdenticalCluster: the same contract for simulated-datacenter
// jobs.
func TestFleetByteIdenticalCluster(t *testing.T) {
	spec := clusterSpec(73, 6)
	want := directPayload(t, spec)

	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		got, _ := f.coord.Status(st.ID)
		t.Fatalf("fleet cluster job: %s (%s)", final, got.Error)
	}
	got := fetchFleetResult(t, f.coordTS, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet cluster payload differs from single-node run")
	}
	var res service.JobResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cluster) != 6 || res.Summary.N != 6 {
		t.Fatalf("merged cluster result: %d results, summary n=%d", len(res.Cluster), res.Summary.N)
	}
}

// TestFleetByteIdenticalIODeadline: the same contract for an I/O-blocking
// workload running under the SCHED_DEADLINE class — device wait queues,
// completion IRQs, blocked-task wakeups, and CBS budget timers must shard
// across the fleet exactly like pure compute.
func TestFleetByteIdenticalIODeadline(t *testing.T) {
	spec := service.JobSpec{
		Platform: "tiny-test", Workload: "svcloop", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 89, Reps: 9,
		DLRuntimeNs: 400_000, DLPeriodNs: 1_000_000,
	}
	want := directPayload(t, spec)

	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		got, _ := f.coord.Status(st.ID)
		t.Fatalf("fleet io+deadline job: %s (%s)", final, got.Error)
	}
	got := fetchFleetResult(t, f.coordTS, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet payload differs from single-node run for the I/O+deadline job")
	}
}

// TestFleetCacheHitZeroExecutions: a resubmitted spec executes zero reps —
// first served by the coordinator's merged cache, then (on a fresh
// coordinator over the same backends) by the backends' shard caches.
func TestFleetCacheHitZeroExecutions(t *testing.T) {
	spec := kernelSpec(79, 9)
	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})

	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		t.Fatalf("first run: %s", final)
	}
	payload1 := fetchFleetResult(t, f.coordTS, st.ID)
	execs := backendExecutions(f)
	if execs == 0 {
		t.Fatal("first run executed nothing")
	}

	// Resubmit: the coordinator's merged cache answers at submit time.
	st2 := submitFleet(t, f.coordTS, spec, http.StatusOK)
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("resubmission not served from merged cache: %+v", st2)
	}
	if !bytes.Equal(payload1, fetchFleetResult(t, f.coordTS, st2.ID)) {
		t.Fatal("merged-cache payload not byte-identical")
	}
	if got := backendExecutions(f); got != execs {
		t.Fatalf("merged-cache hit executed reps: %d -> %d", execs, got)
	}

	// A fresh coordinator has no merged cache: the job fans out again, but
	// every slice hits its backend's shard cache — still zero executions.
	coord2, err := New(Config{Backends: f.coord.run.ring.Members(), JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()

	st3 := submitFleet(t, ts2, spec, http.StatusAccepted, http.StatusOK)
	if !st3.State.Terminal() {
		if final := awaitTerminal(t, ts2.URL, st3.ID); final != service.StateDone {
			t.Fatalf("shard-cache run: %s", final)
		}
	}
	if !bytes.Equal(payload1, fetchFleetResult(t, ts2, st3.ID)) {
		t.Fatal("shard-cache payload not byte-identical")
	}
	if got := backendExecutions(f); got != execs {
		t.Fatalf("shard-cache run executed reps: %d -> %d", execs, got)
	}
	final, _ := coord2.Status(st3.ID)
	for _, s := range final.SubJobs {
		if !s.Cached {
			t.Fatalf("sub-job at offset %d missed the shard cache: %+v", s.Offset, s)
		}
	}
	text := coordMetrics(t, ts2)
	for _, wantLine := range []string{
		"noisefleet_subjob_cache_hits_total 3",
		"noisefleet_shard_hit_ratio 1.000000",
	} {
		if !strings.Contains(text, wantLine) {
			t.Fatalf("coordinator metrics missing %q:\n%s", wantLine, text)
		}
	}
}

// TestFleetBackendFailureFailover kills a backend mid-job and asserts the
// rerouted result is still byte-identical to a single-node run.
//
// The kill is made deterministic, not timing-dependent: every backend has
// one worker occupied by a directly-submitted blocker job, so all fleet
// sub-jobs are parked in backend queues when the victim dies. The victim is
// the ring owner of the first slice, so at least one slice must fail over.
func TestFleetBackendFailureFailover(t *testing.T) {
	spec := kernelSpec(83, 12)
	want := directPayload(t, spec)

	f := newTestFleet(t, 3, service.Config{Workers: 1, JobTimeout: 2 * time.Minute}, Config{})

	// Park a blocker on every backend's single worker.
	blockers := make([]string, len(f.backends))
	for i, b := range f.backends {
		job, err := b.Submit(kernelSpec(uint64(9000+i), 50000))
		if err != nil {
			t.Fatal(err)
		}
		blockers[i] = job.ID
	}

	// The victim is the owner of the offset-0 slice.
	subs, err := Split(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := f.coord.run.ring.Pick(subs[0].Hash)
	victimIdx := -1
	for i, ts := range f.backendTS {
		if ts.URL == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim %s not among backends", victim)
	}

	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)

	// Wait until every slice has been accepted by some backend — they are
	// all parked behind blockers, so none can complete before the kill.
	f.watch.await(t, "all sub-jobs submitted", func() bool {
		subs := f.watch.subs[st.ID]
		if len(subs) != 3 {
			return false
		}
		for _, s := range subs {
			if s.JobID == "" {
				return false
			}
		}
		return true
	})

	// Kill the victim: drop its live connections (breaking the coordinator's
	// event streams) and stop accepting new ones.
	f.backendTS[victimIdx].CloseClientConnections()
	f.backendTS[victimIdx].Close()
	f.backends[victimIdx].Close()

	// Release the survivors.
	for i, b := range f.backends {
		if i != victimIdx {
			b.Cancel(blockers[i])
		}
	}

	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		got, _ := f.coord.Status(st.ID)
		t.Fatalf("fleet job after backend kill: %s (%s)", final, got.Error)
	}
	got := fetchFleetResult(t, f.coordTS, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("failover payload differs from single-node run")
	}

	final, _ := f.coord.Status(st.ID)
	retries := 0
	for _, s := range final.SubJobs {
		retries += s.Retries
		if s.State != service.StateDone {
			t.Fatalf("sub-job at offset %d: %+v", s.Offset, s)
		}
		if s.Node == victim {
			t.Fatalf("sub-job at offset %d still credited to the dead backend", s.Offset)
		}
	}
	if retries == 0 {
		t.Fatal("no sub-job retried despite the backend kill")
	}
	text := coordMetrics(t, f.coordTS)
	if !strings.Contains(text, `noisefleet_backend_up{backend="`+victim+`"} 0`) {
		t.Fatalf("dead backend not marked down in /metrics:\n%s", text)
	}
}

// TestFleetTimeline: a fleet job with "timeline": true serves the offset-0
// slice's timeline from the coordinator, byte-identical to a single node's.
func TestFleetTimeline(t *testing.T) {
	spec := kernelSpec(89, 6)
	spec.Timeline = true

	srv, err := service.New(service.Config{CacheDir: t.TempDir(), JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, _ := srv.Status(job.ID)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("direct run timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantTL, _, _ := srv.Timeline(job.ID)
	if len(wantTL) == 0 {
		t.Fatal("single-node run recorded no timeline")
	}

	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		t.Fatalf("fleet job: %s", final)
	}
	resp, err := http.Get(f.coordTS.URL + "/v1/jobs/" + st.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	gotTL, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet timeline: HTTP %d: %s", resp.StatusCode, gotTL)
	}
	if !bytes.Equal(wantTL, gotTL) {
		t.Fatal("fleet timeline differs from single-node recording")
	}
}

// TestFleetSSEAggregated: the coordinator's event stream delivers monotone
// aggregated progress ending in the terminal state, replayable after the
// job finished.
func TestFleetSSEAggregated(t *testing.T) {
	spec := kernelSpec(97, 8)
	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	st := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	if final := f.awaitTerminal(t, st.ID); final != service.StateDone {
		t.Fatalf("fleet job: %s", final)
	}

	// Subscribe after the fact: the ring replays, ending with state=done.
	resp, err := http.Get(f.coordTS.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		lastDone  = -1
		lastID    = uint64(0)
		lastState string
		event     string
		data      string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			if id <= lastID {
				t.Fatalf("event IDs not strictly increasing: %d after %d", id, lastID)
			}
			lastID = id
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			switch event {
			case "progress":
				var p struct{ Done, Total int }
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatalf("bad progress %q: %v", data, err)
				}
				if p.Done <= lastDone {
					t.Fatalf("progress regressed: %d after %d", p.Done, lastDone)
				}
				if p.Total != 8 {
					t.Fatalf("progress total %d, want 8", p.Total)
				}
				lastDone = p.Done
			case "state":
				var s struct{ State string }
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					t.Fatalf("bad state %q: %v", data, err)
				}
				lastState = s.State
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastState != "done" {
		t.Fatalf("stream ended with state %q, want done", lastState)
	}
}
