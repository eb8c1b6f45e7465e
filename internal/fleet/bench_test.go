package fleet

// Service-layer benchmark evidence: end-to-end job throughput through a
// coordinator fanning reps over three in-process noiselabd backends, plus
// the merged-cache resubmit fast path. The custom metrics (jobs/s, p99-ms)
// are what `make bench-service` records into BENCH_service.json.

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/service"
)

// newBenchFleet stands up n in-process backends and a coordinator, and
// returns the coordinator with a wait function that follows a job's event
// stream to its terminal state.
func newBenchFleet(b *testing.B, n int) (*Coordinator, func(id string) service.JobState) {
	b.Helper()
	var backends []*service.Server
	var backendTS []*httptest.Server
	cfg := Config{JobTimeout: 2 * time.Minute}
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Config{CacheDir: b.TempDir(), JobTimeout: 2 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		backends = append(backends, srv)
		backendTS = append(backendTS, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	coord, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	api := &Backend{Name: coordTS.URL}
	wait := func(id string) service.JobState {
		state, err := api.WaitDone(context.Background(), id, nil)
		if err != nil {
			b.Fatal(err)
		}
		return state
	}
	b.Cleanup(func() {
		coordTS.Close()
		coord.Close()
		for i := range backends {
			backendTS[i].Close()
			backends[i].Close()
		}
	})
	return coord, wait
}

func p99ms(latencies []time.Duration) float64 {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	idx := (99*len(latencies) + 99) / 100
	if idx > 0 {
		idx--
	}
	return float64(latencies[idx].Microseconds()) / 1000
}

// BenchmarkFleetThroughput submits distinct jobs (no cache reuse anywhere)
// through the coordinator and waits for each merged result: the full
// split → fan-out → execute → merge → cache path per iteration.
func BenchmarkFleetThroughput(b *testing.B) {
	coord, wait := newBenchFleet(b, 3)
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		job, err := coord.Submit(kernelSpec(uint64(10_000+i), 6))
		if err != nil {
			b.Fatal(err)
		}
		if got := wait(job.ID); got != service.StateDone {
			b.Fatalf("job %s: %s", job.ID, got)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(p99ms(latencies), "p99-ms")
}

// BenchmarkFleetCachedResubmit resubmits one already-merged spec: the
// coordinator must answer from its merged-result cache without touching
// any backend, so this bounds the coordinator's own bookkeeping overhead.
func BenchmarkFleetCachedResubmit(b *testing.B) {
	coord, wait := newBenchFleet(b, 3)
	spec := kernelSpec(20_001, 6)
	job, err := coord.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if got := wait(job.ID); got != service.StateDone {
		b.Fatalf("warm-up job: %s", got)
	}
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		job, err := coord.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if st, _ := coord.Status(job.ID); st.State != service.StateDone || !st.Cached {
			b.Fatalf("resubmit not served from merged cache: state=%s cached=%v", st.State, st.Cached)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(p99ms(latencies), "p99-ms")
}
