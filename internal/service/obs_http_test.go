package service

// Tests for the observability surface of the daemon: the per-job timeline
// endpoint, the flight-recorder debug endpoint, the JSON metrics rendering,
// the metrics regression fixes (inflight clamp, quantile ring copy), and the
// HTTP listener's timeouts.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sim"
)

// TestTimelineEndpoint: a spec submitted with "timeline": true serves a
// Chrome trace-event document at /v1/jobs/{id}/timeline, and a cache-hit
// resubmission serves the same stored timeline without re-executing.
func TestTimelineEndpoint(t *testing.T) {
	srv, ts, w := newTestServer(t, Config{})
	spec := tinySpec(61, 3)
	spec.Timeline = true

	st := waitTerminal(t, ts, w, submit(t, ts, spec, http.StatusAccepted).ID)
	if st.State != StateDone {
		t.Fatalf("job: %+v", st)
	}
	get := func(id string) (int, []byte) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	code, data := get(st.ID)
	if code != http.StatusOK {
		t.Fatalf("timeline: HTTP %d: %s", code, data)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("timeline is not trace-event JSON: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("empty timeline")
	}

	// Cache hit: same spec again, timeline still served from the derived
	// cache entry without another execution.
	execs := srv.Metrics().Executions
	st2 := submit(t, ts, spec, http.StatusOK)
	if !st2.Cached {
		t.Fatalf("resubmission missed the cache: %+v", st2)
	}
	code2, data2 := get(st2.ID)
	if code2 != http.StatusOK || string(data2) != string(data) {
		t.Fatalf("cached timeline differs: HTTP %d, %d vs %d bytes", code2, len(data2), len(data))
	}
	if srv.Metrics().Executions != execs {
		t.Fatal("timeline cache hit re-ran the engine")
	}

	// A job without the timeline flag 404s with a hint.
	plain := waitTerminal(t, ts, w, submit(t, ts, tinySpec(62, 2), http.StatusAccepted).ID)
	if code, _ := get(plain.ID); code != http.StatusNotFound {
		t.Fatalf("timeline of plain job: HTTP %d, want 404", code)
	}
}

// TestFlightRecorderEndpoint: retained dumps are served as JSON, newest
// bounded by flightKeep.
func TestFlightRecorderEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})

	// Empty log serves an empty array, not an error.
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var dumps []obs.Flight
	if err := json.NewDecoder(resp.Body).Decode(&dumps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dumps) != 0 {
		t.Fatalf("fresh server has %d dumps", len(dumps))
	}

	// Retention is bounded: only the newest flightKeep dumps survive.
	for i := 0; i < flightKeep+5; i++ {
		srv.flights.add(obs.Flight{Label: "rep 0", Err: "synthetic", Total: uint64(i),
			Events: []obs.Event{{Start: sim.Time(i), Phase: obs.PhaseInstant, Name: "preempt", Cat: "sched"}}})
	}
	resp, err = http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dumps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dumps) != flightKeep {
		t.Fatalf("retained %d dumps, want %d", len(dumps), flightKeep)
	}
	if dumps[len(dumps)-1].Total != uint64(flightKeep+4) {
		t.Fatalf("newest dump lost: last total = %d", dumps[len(dumps)-1].Total)
	}
	if len(dumps[0].Events) != 1 || dumps[0].Events[0].Name != "preempt" {
		t.Fatalf("dump events mangled: %+v", dumps[0])
	}
}

// TestFailedJobRetainsOneFlightDump: a job whose every rep fails leaves
// exactly one document in /debug/flightrecorder — the ring of the rep whose
// error the job reports — however many reps the executor's pool ran before
// the failure cancelled the rest.
func TestFailedJobRetainsOneFlightDump(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{Parallelism: 4})
	// Resolve does not validate the injection config, so a job built past
	// submission validation fails inside every rep (zero window).
	spec := tinySpec(64, 8)
	spec.Inject = &core.Config{}
	job := &Job{srv: srv, ID: "bad", Spec: spec, events: NewEventLog(0)}
	if _, err := srv.runner.Run(context.Background(), job); err == nil {
		t.Fatal("job with an invalid injection config succeeded")
	}
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dumps []obs.Flight
	if err := json.NewDecoder(resp.Body).Decode(&dumps); err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("failed job left %d flight dumps, want 1", len(dumps))
	}
	if dumps[0].Label != "rep 0" {
		t.Fatalf("flight dump label = %q, want the lowest failing rep", dumps[0].Label)
	}
}

// TestMetricsJSONFormat: /metrics?format=json returns the snapshot plus
// both registries as one JSON document.
func TestMetricsJSONFormat(t *testing.T) {
	_, ts, w := newTestServer(t, Config{})
	waitTerminal(t, ts, w, submit(t, ts, tinySpec(63, 2), http.StatusAccepted).ID)

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Snapshot Snapshot `json:"snapshot"`
		Service  struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"service"`
		Kernel struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"kernel"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Snapshot.Done != 1 {
		t.Fatalf("snapshot done = %d, want 1", doc.Snapshot.Done)
	}
	if doc.Service.Counters[`noiselabd_jobs_total{state="done"}`] != 1 {
		t.Fatalf("service counters: %v", doc.Service.Counters)
	}
	if doc.Kernel.Counters["repro_runs_total"] != 2 {
		t.Fatalf("kernel counters: %v", doc.Kernel.Counters)
	}
}

// TestMetricsTextRendersServiceRegistry: the text /metrics carries every
// family of the service registry that the JSON form carries, the job-latency
// histogram's buckets included (the quantiles' HELP line points at them).
func TestMetricsTextRendersServiceRegistry(t *testing.T) {
	_, ts, w := newTestServer(t, Config{})
	waitTerminal(t, ts, w, submit(t, ts, tinySpec(64, 2), http.StatusAccepted).ID)

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var doc struct {
		Service struct {
			Counters   map[string]uint64           `json:"counters"`
			Gauges     map[string]int64            `json:"gauges"`
			Histograms map[string]obs.HistSnapshot `json:"histograms"`
		} `json:"service"`
	}
	if err := json.Unmarshal(get("/metrics?format=json"), &doc); err != nil {
		t.Fatal(err)
	}
	if h := doc.Service.Histograms["noiselabd_job_latency_hist_seconds"]; h.Count != 1 {
		t.Fatalf("latency histogram count = %d, want 1", h.Count)
	}
	text := string(get("/metrics"))
	var want []string
	for name, v := range doc.Service.Counters {
		want = append(want, fmt.Sprintf("\n%s %d\n", name, v))
	}
	for name, v := range doc.Service.Gauges {
		want = append(want, fmt.Sprintf("\n%s %d\n", name, v))
	}
	for name, h := range doc.Service.Histograms {
		want = append(want, fmt.Sprintf("\n%s_bucket{le=\"+Inf\"} %d\n", name, h.Count),
			fmt.Sprintf("\n%s_count %d\n", name, h.Count))
	}
	for _, line := range want {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics text missing %q", strings.TrimSpace(line))
		}
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", text)
	}
}

// TestInflightNeverNegative is the regression test for the double-finish
// bug: a spurious second jobFinished for the same job must leave the
// inflight gauge clamped at zero instead of driving it negative.
func TestInflightNeverNegative(t *testing.T) {
	m := newMetrics(nil)
	m.jobStarted()
	m.jobFinished(StateDone, false, 0.1)
	m.jobFinished(StateDone, false, 0.1) // spurious double finish
	if got := m.snapshot(0, rescache.Stats{}).InFlight; got != 0 {
		t.Fatalf("inflight after double finish = %d, want 0", got)
	}
	// The gauge recovers: the next start/finish pair still balances.
	m.jobStarted()
	if got := m.snapshot(0, rescache.Stats{}).InFlight; got != 1 {
		t.Fatalf("inflight after recovery start = %d, want 1", got)
	}
	m.jobFinished(StateFailed, false, 0.2)
	if got := m.snapshot(0, rescache.Stats{}).InFlight; got != 0 {
		t.Fatalf("inflight after recovery finish = %d, want 0", got)
	}
}

// TestLatencyQuantilesInterpolateHistogram pins Snapshot's p50/p99: they
// are read off the job-latency histogram by linear interpolation within the
// bucket holding the quantile's rank, and snapshots do not disturb them.
func TestLatencyQuantilesInterpolateHistogram(t *testing.T) {
	m := newMetrics(nil)
	if snap := m.snapshot(0, rescache.Stats{}); snap.LatencyP50 != 0 || snap.LatencyP99 != 0 {
		t.Fatalf("no jobs: p50 %v p99 %v, want 0", snap.LatencyP50, snap.LatencyP99)
	}
	// Four samples in (0.01, 0.1], four in (0.1, 0.5], two in (1, 5]: rank 5
	// of 10 is the first of the (0.1, 0.5] bucket's four, rank 9.9 lies 1.9
	// of 2 into the (1, 5] bucket.
	for _, s := range []float64{0.05, 0.3, 2, 0.05, 0.3, 0.05, 2, 0.3, 0.05, 0.3} {
		m.jobStarted()
		m.jobFinished(StateDone, false, s)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	snap := m.snapshot(0, rescache.Stats{})
	if !near(snap.LatencyP50, 0.2) || !near(snap.LatencyP99, 4.8) {
		t.Fatalf("p50 %v p99 %v, want 0.2 and 4.8", snap.LatencyP50, snap.LatencyP99)
	}
	if again := m.snapshot(0, rescache.Stats{}); again.LatencyP50 != snap.LatencyP50 || again.LatencyP99 != snap.LatencyP99 {
		t.Fatalf("snapshot not idempotent: %+v vs %+v", again, snap)
	}
	// A rank in the +Inf bucket reads as the highest finite bound.
	for i := 0; i < 10; i++ {
		m.jobFinished(StateDone, false, 500)
	}
	if p99 := m.snapshot(0, rescache.Stats{}).LatencyP99; p99 != latencyBounds[len(latencyBounds)-1] {
		t.Fatalf("p99 past the last bound = %v, want %v", p99, latencyBounds[len(latencyBounds)-1])
	}
}

// TestHTTPServerTimeouts pins the listener both daemons serve on: header
// reads and idle connections are bounded, whole requests and responses
// are not (spec bodies up to 64 MB, SSE streams as long as a job runs).
func TestHTTPServerTimeouts(t *testing.T) {
	srv := NewHTTPServer(":0", http.NotFoundHandler())
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Fatalf("addr %q, handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v; want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}
