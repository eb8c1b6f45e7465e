package experiment

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/platform"
)

// heapPeak samples runtime.MemStats.HeapInuse every few milliseconds until
// stop is called, which returns the largest sample.
func heapPeak() (stop func() uint64) {
	var (
		peak uint64
		wg   sync.WaitGroup
	)
	quit := make(chan struct{})
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() uint64 {
		close(quit)
		wg.Wait()
		return peak
	}
}

// TestHuntMemoryBound runs a paper-depth (1000-rep) AMD nbody worst-case
// hunt the way the studies do, then a 1000-rep traced baseline series, and
// requires the live heap to stay under 64 MB throughout: each rep's trace
// is folded or dropped as the rep finishes. Keeping every trace of such a
// hunt needs several hundred MB.
func TestHuntMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-depth collection")
	}
	const (
		reps  = 1000
		limit = 64 << 20
	)
	ctx := context.Background()
	p := platform.MustNew(machine.AMD9950X3D)
	w, err := p.WorkloadSpec("nbody")
	if err != nil {
		t.Fatal(err)
	}
	exec := Executor{Parallelism: 4}.withWorlds()
	runtime.GC()
	stop := heapPeak()
	_, pr, err := huntConfig(ctx, exec, p, "nbody",
		ConfigSource{Model: "omp", Strategy: mitigate.Rm, ID: 1}, reps, true, 1, false)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	times, err := exec.seriesEach(ctx, Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm,
		Seed: SeedFor(1, "ibase", "nbody", "omp", mitigate.Rm.Name()), Tracing: true,
	}, reps, nil)
	peak := stop()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Traces != nil || pr.Profile.Traces != reps || len(times) != reps {
		t.Fatalf("hunt kept %d traces and profiled %d; baseline ran %d reps",
			len(pr.Traces), pr.Profile.Traces, len(times))
	}
	t.Logf("peak HeapInuse %.1f MB over a %d-rep hunt and a %d-rep traced baseline",
		float64(peak)/(1<<20), reps, reps)
	if peak >= limit {
		t.Fatalf("peak HeapInuse %.1f MB, want < %d MB", float64(peak)/(1<<20), limit>>20)
	}
}
