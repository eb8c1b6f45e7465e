package experiment

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// batchTestSpec is a small traced spec for pooled-vs-fresh comparisons.
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

// TestBatchedSeriesMatchesLegacy runs the same series through fresh worlds
// (FreshWorlds, every rep builds its own) and through pooled worlds (at
// parallelism 1 and 8) and demands identical times and identical traces,
// event for event. This is the end-to-end form of the reset-safety
// guarantee: every SeedAt-derived per-rep RNG stream drawn in a reset world
// reproduces the from-scratch sequence.
func TestBatchedSeriesMatchesLegacy(t *testing.T) {
	spec := batchTestSpec(t)
	const reps = 6
	freshTimes, freshTraces, err := Executor{Parallelism: 1, Worlds: FreshWorlds()}.
		Series(context.Background(), spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	freshHash, freshEvents := fingerprintTraces(freshTraces)
	for _, parallelism := range []int{1, 8} {
		times, traces, err := Executor{Parallelism: parallelism}.
			Series(context.Background(), spec, reps)
		if err != nil {
			t.Fatal(err)
		}
		if len(times) != len(freshTimes) {
			t.Fatalf("p=%d: %d times, fresh %d", parallelism, len(times), len(freshTimes))
		}
		for i := range times {
			if times[i] != freshTimes[i] {
				t.Errorf("p=%d rep %d: pooled %v, fresh %v", parallelism, i, times[i], freshTimes[i])
			}
		}
		hash, events := fingerprintTraces(traces)
		if hash != freshHash || events != freshEvents {
			t.Errorf("p=%d: pooled traces %s (%d events), fresh %s (%d events)",
				parallelism, hash, events, freshHash, freshEvents)
		}
	}
}

// TestForkedRepMatchesFreshWorld is the narrow unit form of reset
// safety: a rep run in a world warmed by other seeds produces exactly the
// result a fresh world produces for the same seed — the per-rep RNG stream
// (SeedAt-derived) is rebuilt from the seed inside the rep, so warm state
// cannot leak into it.
func TestForkedRepMatchesFreshWorld(t *testing.T) {
	spec := batchTestSpec(t)
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		t.Fatal(err)
	}
	key := worldKeyFor(spec)
	prog := spec.compile(plan)

	// Warm a world with three different-seed reps.
	warm := newWorld(key)
	for i := 1; i <= 3; i++ {
		s := spec
		s.Seed = SeedAt(spec.Seed, i)
		if _, err := warm.run(s, plan, prog); err != nil {
			t.Fatal(err)
		}
		warm.reset()
	}

	s := spec
	s.Seed = SeedAt(spec.Seed, 0)
	warmReg, freshReg := obs.NewRegistry(), obs.NewRegistry()
	s.Obs = &obs.Options{Reg: warmReg}
	got, err := warm.run(s, plan, prog)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = &obs.Options{Reg: freshReg}
	fresh, err := newWorld(key).run(s, plan, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecTime != fresh.ExecTime ||
		got.ContextSwitches != fresh.ContextSwitches ||
		got.Requests != fresh.Requests {
		t.Fatalf("warm-world rep diverged: %+v vs fresh %+v", got, fresh)
	}
	gh, gn := fingerprintTraces([]*trace.Trace{got.Trace})
	fh, fn := fingerprintTraces([]*trace.Trace{fresh.Trace})
	if gh != fh || gn != fn {
		t.Fatalf("warm-world trace diverged: %s (%d events) vs fresh %s (%d events)", gh, gn, fh, fn)
	}
	built := func(reg *obs.Registry) (uint64, uint64) {
		return reg.Counter("repro_sim_snapshots_total", "").Value(),
			reg.Counter("repro_sim_batched_reps_total", "").Value()
	}
	if b, r := built(warmReg); r != 1 || b != 0 {
		t.Fatalf("warm world miscounted: built=%d reused=%d", b, r)
	}
	if b, r := built(freshReg); b != 1 || r != 0 {
		t.Fatalf("fresh world miscounted: built=%d reused=%d", b, r)
	}
}

// TestBatchCountersReachRegistry checks the obs registry exposes the world
// reuse counters and that warm reps drive pool misses toward zero.
func TestBatchCountersReachRegistry(t *testing.T) {
	spec := batchTestSpec(t)
	spec.Tracing = false
	reg := obs.NewRegistry()
	exec := Executor{Parallelism: 1, Obs: &ObsOptions{Reg: reg}}
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
	// Warm reps reuse pooled timers and tasks: total pool misses must be
	// far below reps * (first rep's misses). The first rep necessarily
	// allocates; later reps may allocate a handful when a rep needs more
	// concurrent timers than any before it.
	misses := find("repro_sim_cow_copies_total")
	if misses == 0 {
		t.Error("pool misses = 0, want > 0 (the first rep allocates everything)")
	}
	firstRep := poolMissesOfSingleRep(t, spec)
	if misses > firstRep+firstRep/2 {
		t.Errorf("pool misses = %d over %d reps, want near one rep's %d (pools not reused?)",
			misses, reps, firstRep)
	}
}

// poolMissesOfSingleRep measures the pool misses of one cold rep.
func poolMissesOfSingleRep(t *testing.T, spec Spec) uint64 {
	t.Helper()
	plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newWorld(worldKeyFor(spec)).run(spec, plan, spec.compile(plan))
	if err != nil {
		t.Fatal(err)
	}
	return res.PoolMisses
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
	w := newWorld(k1)
	pool.put(w)
	if got := pool.get(k2); got == w {
		t.Fatal("pool returned a world for a different key")
	}
	if got := pool.get(k1); got != w {
		t.Fatal("pool lost the world for its own key")
	}
}

// TestSeriesRejectsInvalidSpecs checks that every series entry point
// validates its spec and rep count once, before any world or shell is
// built: a spec missing its platform or workload (or an invalid cluster
// spec) returns the validation error, at any rep count, and a negative rep
// count returns an error, instead of panicking.
func TestSeriesRejectsInvalidSpecs(t *testing.T) {
	valid := batchTestSpec(t)
	plan, err := mitigate.Apply(valid.Strategy, valid.Platform.Topo)
	if err != nil {
		t.Fatal(err)
	}
	noPlatform, noWorkload := valid, valid
	noPlatform.Platform = nil
	noWorkload.Workload = nil
	const wantSpec = "experiment: spec needs platform and workload"
	badCluster := cluster.StragglerStudySpec()
	badCluster.Policy = "bogus"
	wantCluster := badCluster.Validate()
	if wantCluster == nil {
		t.Fatal("cluster spec with an unknown policy validated")
	}
	ctx := context.Background()
	const wantReps = "experiment: negative rep count -1"
	if _, _, err := (Executor{}).Series(ctx, valid, -1); err == nil || err.Error() != wantReps {
		t.Errorf("Series(reps=-1) = %v, want %q", err, wantReps)
	}
	if _, err := (Executor{}).seriesWithPlan(ctx, valid, plan, -1); err == nil || err.Error() != wantReps {
		t.Errorf("seriesWithPlan(reps=-1) = %v, want %q", err, wantReps)
	}
	if _, err := (Executor{}).ClusterSeries(ctx, cluster.StragglerStudySpec(), 1, -1); err == nil || err.Error() != wantReps {
		t.Errorf("ClusterSeries(reps=-1) = %v, want %q", err, wantReps)
	}
	for _, reps := range []int{-1, 1, 8} {
		for name, spec := range map[string]Spec{"nil platform": noPlatform, "nil workload": noWorkload} {
			if _, _, err := (Executor{}).Series(ctx, spec, reps); err == nil || err.Error() != wantSpec {
				t.Errorf("Series(%s, reps=%d) = %v, want %q", name, reps, err, wantSpec)
			}
			if _, err := (Executor{}).seriesWithPlan(ctx, spec, plan, reps); err == nil || err.Error() != wantSpec {
				t.Errorf("seriesWithPlan(%s, reps=%d) = %v, want %q", name, reps, err, wantSpec)
			}
		}
		if _, err := (Executor{}).ClusterSeries(ctx, badCluster, 1, reps); err == nil || err.Error() != wantCluster.Error() {
			t.Errorf("ClusterSeries(unknown policy, reps=%d) = %v, want %q", reps, err, wantCluster)
		}
	}
	// An unknown model is a spec error too: rejected unwrapped, before any
	// world is built, even when no rep would run.
	noModel := valid
	noModel.Model = "tbb"
	const wantModel = `experiment: unknown model "tbb"`
	for _, reps := range []int{0, 1, 8} {
		if _, _, err := (Executor{}).Series(ctx, noModel, reps); err == nil || err.Error() != wantModel {
			t.Errorf("Series(unknown model, reps=%d) = %v, want %q", reps, err, wantModel)
		}
		if _, err := (Executor{}).seriesWithPlan(ctx, noModel, plan, reps); err == nil || err.Error() != wantModel {
			t.Errorf("seriesWithPlan(unknown model, reps=%d) = %v, want %q", reps, err, wantModel)
		}
	}
	if _, err := RunOnce(noModel); err == nil || err.Error() != wantModel {
		t.Errorf("RunOnce(unknown model) = %v, want %q", err, wantModel)
	}
}
