package analyze

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// TestRegionFoldMatchesTimeline: each cell's region breakdown, folded as
// rep 0's events are emitted, is bit-equal to a recomputation over that
// rep's stored timeline, and TimelineEvents counts that timeline. The
// caller's registry gives every rep a recorder, and only rep 0's events
// may reach the fold.
func TestRegionFoldMatchesTimeline(t *testing.T) {
	spec := goldenSpec()
	exec := experiment.Executor{Parallelism: 2, Obs: &experiment.ObsOptions{Reg: obs.NewRegistry()}}
	out, err := Run(context.Background(), exec, spec)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Artifact.Curves {
		for _, p := range c.Points {
			cell := base
			cell.NoiseSource, cell.SourceScale, cell.Seed = c.Source, p.Factor, p.Seed
			var rec *obs.Recorder
			e := experiment.Executor{Obs: &experiment.ObsOptions{Timeline: true,
				OnTimeline: func(r *obs.Recorder) { rec = r }}}
			if _, _, err := e.Series(context.Background(), cell, 1); err != nil {
				t.Fatal(err)
			}
			want := map[string]float64{}
			for _, ev := range rec.Events() {
				if r := regionCategory(ev.Cat); r != "" && ev.Dur > 0 {
					want[r] += float64(ev.Dur) / 1e6
				}
			}
			if p.TimelineEvents != len(rec.Events()) {
				t.Fatalf("%s x%g: TimelineEvents = %d, timeline holds %d",
					c.Source, p.Factor, p.TimelineEvents, len(rec.Events()))
			}
			if len(p.RegionsMs) != len(want) {
				t.Fatalf("%s x%g: regions %v, want %v", c.Source, p.Factor, p.RegionsMs, want)
			}
			for r, ms := range want {
				if math.Float64bits(p.RegionsMs[r]) != math.Float64bits(ms) {
					t.Fatalf("%s x%g %s: folded %v ms, timeline gives %v ms",
						c.Source, p.Factor, r, p.RegionsMs[r], ms)
				}
			}
		}
	}
}

// TestSweepAllocPerRep bounds what an analyze sweep allocates per rep when
// the caller observes nothing: rep 0 of each cell folds its regions without
// storing a timeline, and the other reps carry no recorder at all.
func TestSweepAllocPerRep(t *testing.T) {
	spec := Spec{
		Platform: "a64fx-reserved", Workload: "logwriter", Model: "omp", Strategy: "Rm",
		Seed: 42, Reps: 3, Sources: []string{"irq", "daemon"}, Ladder: []float64{1, 4},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), experiment.Executor{Parallelism: 1}, spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRep := (after.TotalAlloc - before.TotalAlloc) / uint64(spec.TotalReps())
	t.Logf("%d bytes allocated per rep", perRep)
	if perRep >= 200<<10 {
		t.Fatalf("sweep allocated %d bytes per rep, want < %d", perRep, 200<<10)
	}
}
