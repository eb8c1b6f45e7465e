package experiment

import (
	"context"
	"testing"

	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestParseBatchPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want BatchPolicy
		err  bool
	}{
		{"", BatchAuto, false},
		{"auto", BatchAuto, false},
		{"on", BatchOn, false},
		{"off", BatchOff, false},
		{"ON", BatchAuto, true},
		{"never", BatchAuto, true},
	}
	for _, c := range cases {
		got, err := ParseBatchPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseBatchPolicy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestBatchRepsPolicy(t *testing.T) {
	if (Executor{}).batchReps(BatchThreshold - 1) {
		t.Error("auto batched below threshold")
	}
	if !(Executor{}).batchReps(BatchThreshold) {
		t.Error("auto did not batch at threshold")
	}
	if !(Executor{Batch: BatchOn}).batchReps(1) {
		t.Error("BatchOn did not batch a single rep")
	}
	if (Executor{Batch: BatchOff}).batchReps(100) {
		t.Error("BatchOff batched")
	}
}

// batchTestSpec is a small traced spec for batched-vs-legacy comparisons.
func batchTestSpec(t *testing.T) Spec {
	t.Helper()
	p, err := platform.New("tiny-test")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("nbody", "small")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm,
		Seed: 4242, Tracing: true}
}

// TestBatchedSeriesMatchesLegacy runs the same series with batching forced
// off and forced on (at parallelism 1 and 8) and demands identical times
// and identical traces, event for event. This is the end-to-end form of the
// snapshot-safety guarantee: every seedAt-derived per-rep RNG stream drawn
// in a forked world reproduces the from-scratch sequence.
func TestBatchedSeriesMatchesLegacy(t *testing.T) {
	spec := batchTestSpec(t)
	const reps = 6
	legacyTimes, legacyTraces, err := Executor{Parallelism: 1, Batch: BatchOff}.
		Series(context.Background(), spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	legacyHash, legacyEvents := fingerprintTraces(legacyTraces)
	for _, parallelism := range []int{1, 8} {
		times, traces, err := Executor{Parallelism: parallelism, Batch: BatchOn}.
			Series(context.Background(), spec, reps)
		if err != nil {
			t.Fatal(err)
		}
		if len(times) != len(legacyTimes) {
			t.Fatalf("p=%d: %d times, legacy %d", parallelism, len(times), len(legacyTimes))
		}
		for i := range times {
			if times[i] != legacyTimes[i] {
				t.Errorf("p=%d rep %d: batched %v, legacy %v", parallelism, i, times[i], legacyTimes[i])
			}
		}
		hash, events := fingerprintTraces(traces)
		if hash != legacyHash || events != legacyEvents {
			t.Errorf("p=%d: batched traces %s (%d events), legacy %s (%d events)",
				parallelism, hash, events, legacyHash, legacyEvents)
		}
	}
}

// TestForkedRepMatchesFreshWorld is the narrow unit form of snapshot
// safety: a rep run in a world warmed by other seeds produces exactly the
// result a fresh world produces for the same seed — the per-rep RNG stream
// (seedAt-derived) is rebuilt from the seed inside the rep, so warm state
// cannot leak into it.
func TestForkedRepMatchesFreshWorld(t *testing.T) {
	spec := batchTestSpec(t)
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		t.Fatal(err)
	}
	key := worldKeyFor(spec)

	// Warm a world with three different-seed reps.
	warm := newWorld(key, true)
	for i := 1; i <= 3; i++ {
		s := spec
		s.Seed = seedAt(spec.Seed, i)
		if _, err := warm.run(s, plan); err != nil {
			t.Fatal(err)
		}
	}

	s := spec
	s.Seed = seedAt(spec.Seed, 0)
	got, err := warm.run(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newWorld(key, true).run(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecTime != fresh.ExecTime ||
		got.ContextSwitches != fresh.ContextSwitches ||
		got.InlineDispatches != fresh.InlineDispatches {
		t.Fatalf("warm-world rep diverged: %+v vs fresh %+v", got, fresh)
	}
	gh, gn := fingerprintTraces([]*trace.Trace{got.Trace})
	fh, fn := fingerprintTraces([]*trace.Trace{fresh.Trace})
	if gh != fh || gn != fn {
		t.Fatalf("warm-world trace diverged: %s (%d events) vs fresh %s (%d events)", gh, gn, fh, fn)
	}
	if got.BatchedReps != 1 || got.Snapshots != 0 {
		t.Fatalf("warm world miscounted: snapshots=%d batched=%d", got.Snapshots, got.BatchedReps)
	}
	if fresh.Snapshots != 1 || fresh.BatchedReps != 0 {
		t.Fatalf("fresh world miscounted: snapshots=%d batched=%d", fresh.Snapshots, fresh.BatchedReps)
	}
}

// TestBatchCountersReachRegistry checks the obs registry exposes the new
// batch counters and that warm reps drive cow-copies toward zero.
func TestBatchCountersReachRegistry(t *testing.T) {
	spec := batchTestSpec(t)
	spec.Tracing = false
	reg := obs.NewRegistry()
	exec := Executor{Parallelism: 1, Batch: BatchOn,
		Obs: &ObsOptions{Reg: reg}}
	const reps = 6
	if _, _, err := exec.Series(context.Background(), spec, reps); err != nil {
		t.Fatal(err)
	}
	find := func(name string) uint64 {
		return reg.Counter(name, "").Value()
	}
	if got := find("repro_sim_snapshots_total"); got != 1 {
		t.Errorf("snapshots = %d, want 1 (one world, sequential)", got)
	}
	if got := find("repro_sim_batched_reps_total"); got != reps-1 {
		t.Errorf("batched reps = %d, want %d", got, reps-1)
	}
	// Warm reps reuse pooled timers and tasks: total fresh materializations
	// must be far below reps * (first rep's allocations). The first rep
	// necessarily allocates; later reps may allocate a handful when a rep
	// needs more concurrent timers than any before it.
	cow := find("repro_sim_cow_copies_total")
	if cow == 0 {
		t.Error("cow copies = 0, want > 0 (the first rep materializes everything)")
	}
	firstRep := cowForSingleRep(t, spec)
	if cow > firstRep+firstRep/2 {
		t.Errorf("cow copies = %d over %d reps, want near one rep's %d (pools not reused?)",
			cow, reps, firstRep)
	}
}

// cowForSingleRep measures the fresh materializations of one cold rep.
func cowForSingleRep(t *testing.T, spec Spec) uint64 {
	t.Helper()
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newWorld(worldKeyFor(spec), true).run(spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res.CowCopies
}

// TestWorldPoolKeying verifies worlds are only shared between specs with
// the same topology and scheduler options.
func TestWorldPoolKeying(t *testing.T) {
	spec := batchTestSpec(t)
	k1 := worldKeyFor(spec)
	other := spec
	p2 := *spec.Platform
	p2.SchedOpt.RTThrottle = !p2.SchedOpt.RTThrottle
	other.Platform = &p2
	k2 := worldKeyFor(other)
	if k1 == k2 {
		t.Fatal("different scheduler options produced the same world key")
	}
	pool := NewWorldPool()
	w := newWorld(k1, true)
	pool.put(w)
	if got := pool.get(k2); got != nil {
		t.Fatal("pool returned a world for a different key")
	}
	if got := pool.get(k1); got != w {
		t.Fatal("pool lost the world for its own key")
	}
}
