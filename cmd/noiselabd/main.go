// Command noiselabd serves the experiment engine over HTTP: submit an
// experiment spec, poll job status, fetch results, cancel. A bounded job
// queue feeds the deterministic parallel executor, and a content-addressed
// result cache serves repeated submissions of identical specs without
// re-execution (runs are pure functions of spec, seed and model version —
// see DESIGN.md §7). SIGTERM/SIGINT trigger a graceful drain: submissions
// are rejected with 503 while queued and running jobs finish, bounded by
// -drain-timeout.
//
// Usage:
//
//	noiselabd [-addr :8723] [-cache-dir DIR] [-queue N] [-workers N]
//	          [-parallel N] [-job-timeout D] [-drain-timeout D]
//	          [-mem-entries N] [-max-reps N] [-flight-ring N]
//
// Observability: GET /metrics serves the service and kernel counters
// (Prometheus text; ?format=json for JSON), GET /debug/flightrecorder the
// most recent flight-recorder dumps of failed reps, and
// GET /v1/jobs/{id}/timeline the Chrome trace-event timeline of a job
// submitted with "timeline": true.
//
// Clients: noiselab submit | status | get | cancel (see noiselab -h).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	cacheDir := flag.String("cache-dir", "noiselab-cache", "on-disk result store (empty = memory-only)")
	queue := flag.Int("queue", 64, "bounded job-queue size")
	workers := flag.Int("workers", 1, "jobs executed concurrently")
	parallel := flag.Int("parallel", 0, "per-job executor pool size (0 = REPRO_PARALLEL or GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job execution timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
	memEntries := flag.Int("mem-entries", 256, "in-memory cache entries (LRU)")
	maxReps := flag.Int("max-reps", 100000, "largest accepted repetition count")
	flightRing := flag.Int("flight-ring", 0,
		"per-rep flight-recorder ring size for /debug/flightrecorder (0 = default)")
	flag.Parse()

	srv, err := service.New(service.Config{
		CacheDir:    *cacheDir,
		MemEntries:  *memEntries,
		QueueSize:   *queue,
		Workers:     *workers,
		Parallelism: *parallel,
		JobTimeout:  *jobTimeout,
		MaxReps:     *maxReps,
		FlightRing:  *flightRing,
	})
	if err != nil {
		log.Fatalf("noiselabd: %v", err)
	}

	httpSrv := service.NewHTTPServer(*addr, srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("noiselabd: listening on %s (cache %s)", *addr, *cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("noiselabd: %v: draining (bound %v)", s, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("noiselabd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("noiselabd: drain: %v (in-flight jobs canceled)", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("noiselabd: shutdown: %v", err)
	}
	snap := srv.Metrics()
	fmt.Printf("noiselabd: served %d jobs (%d done, %d failed, %d canceled), %d executions, %d cache hits\n",
		snap.Submitted, snap.Done, snap.Failed, snap.Canceled, snap.Executions, snap.CacheHits)
}
