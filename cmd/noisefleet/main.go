// Command noisefleet coordinates a fleet of noiselabd backends: it shards
// incoming jobs across the fleet by consistent hashing on the result-cache
// content key (so each backend's cache stays hot on a disjoint key range),
// splits a job's repetitions into sub-jobs fanned across backends and merges
// the slices byte-identically to a single-node run, retries sub-jobs whose
// backend dies against the next node on the ring, and streams aggregated
// live progress over SSE.
//
// The coordinator is noiselabd's API: the same service.Server, job queue,
// result cache, SSE streams and metrics, with a runner that fans each job
// out across the backends instead of executing it locally. So the noiselab
// CLI drives either one unchanged; GET /v1/jobs/{id} additionally reports
// per-sub-job placement, GET /v1/ring?key=K shows where a content key
// lives, and a full queue answers 503 with Retry-After, as on a daemon.
//
// Usage:
//
//	noisefleet -backends http://host1:8723,http://host2:8723 [-addr :8733]
//	           [-subjobs N] [-replicas N] [-mem-entries N]
//	           [-job-timeout D] [-max-reps N]
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8733", "listen address")
	backends := flag.String("backends", "", "comma-separated noiselabd base URLs (required)")
	subjobs := flag.Int("subjobs", 0, "sub-jobs per fleet job (0 = one per backend)")
	replicas := flag.Int("replicas", 0, "vnodes per backend on the hash ring (0 = default)")
	memEntries := flag.Int("mem-entries", 256, "merged-result cache entries (LRU)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job end-to-end timeout")
	maxReps := flag.Int("max-reps", 100000, "largest accepted repetition count")
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("noisefleet: -backends is required (comma-separated noiselabd URLs)")
	}

	coord, err := fleet.New(fleet.Config{
		Backends:   urls,
		Replicas:   *replicas,
		SubJobs:    *subjobs,
		MemEntries: *memEntries,
		JobTimeout: *jobTimeout,
		MaxReps:    *maxReps,
	})
	if err != nil {
		log.Fatalf("noisefleet: %v", err)
	}

	httpSrv := service.NewHTTPServer(*addr, coord.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("noisefleet: listening on %s, %d backends: %s", *addr, len(urls), strings.Join(urls, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("noisefleet: %v: shutting down", s)
	case err := <-errCh:
		log.Fatalf("noisefleet: serve: %v", err)
	}
	httpSrv.Close()
	coord.Close()
	log.Print("noisefleet: stopped")
}
