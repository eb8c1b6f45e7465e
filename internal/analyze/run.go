package analyze

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Outcome is a completed analysis: the artifact plus the exported timeline
// evidence (source name -> Chrome trace-event JSON; empty unless
// Spec.Timeline).
type Outcome struct {
	Artifact *Artifact
	// Timelines maps each source to its evidence bytes, keyed by the
	// artifact's TimelineRef.Source (files named TimelineRef.File).
	Timelines map[string][]byte
}

// Run executes the full sweep: for every (source, factor) cell it runs a
// Reps-long series through the executor — in pooled worlds, reps
// parallel within a cell, per-rep seeds via SeedAt — fits the sensitivity
// slopes, and assembles the artifact.
//
// Executor handling: OnRep is re-based to aggregate progress across all
// cells (done out of Spec.TotalReps()); every other Obs field is honored,
// with OnEvent and OnTimeline called per cell (see cellObs). Each cell's
// region breakdown is folded from rep 0's events as they are emitted,
// whatever the caller's observability, so attaching or detaching it never
// changes the artifact bytes. Rep 0's timeline is stored when spec.Timeline
// asks for evidence or the caller sets Obs.Timeline.
func Run(ctx context.Context, exec experiment.Executor, spec Spec) (*Outcome, error) {
	hash, err := SpecHash(&spec) // normalizes in place
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(0); err != nil {
		return nil, err
	}
	base, err := spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	sources := spec.EffectiveSources()
	ladder := spec.EffectiveLadder()
	if exec.Worlds == nil {
		// One pool for the whole sweep: every cell shares the same
		// (topology, options) world key, so warm worlds carry across cells.
		exec.Worlds = experiment.NewWorldPool()
	}
	totalReps := spec.TotalReps()
	repsDone := 0
	callerOnRep := exec.OnRep

	curves := make([]SourceCurve, 0, len(sources))
	var timelines map[string][]byte
	if spec.Timeline {
		timelines = make(map[string][]byte, len(sources))
	}
	for _, src := range sources {
		points := make([]SweepPoint, 0, len(ladder))
		var evidence *obs.Recorder
		for _, f := range ladder {
			cell := base
			cell.NoiseSource, cell.SourceScale = src, f
			cell.Seed = CellSeed(spec.Seed, src, f)

			var rec0 *obs.Recorder
			e := exec
			done0 := repsDone
			if callerOnRep != nil {
				e.OnRep = func(done, total int) { callerOnRep(done0+done, totalReps) }
			}
			fold := &regionFold{regions: make(map[string]float64)}
			e.Obs = cellObs(exec.Obs, spec.Timeline, fold, &rec0)

			times, err := e.SeriesTimes(ctx, cell, spec.Reps)
			if err != nil {
				return nil, fmt.Errorf("analyze: %s x%s: %w", src, FormatFactor(f), err)
			}
			repsDone += spec.Reps
			points = append(points, buildPoint(f, cell.Seed, times, fold))
			evidence = rec0 // ladder is ascending: the last one is the top point
		}
		curve, err := fitCurve(src, ladder, points)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve)
		if spec.Timeline && evidence != nil {
			var buf bytes.Buffer
			if err := evidence.WriteChromeJSON(&buf); err != nil {
				return nil, fmt.Errorf("analyze: %s timeline: %w", src, err)
			}
			timelines[src] = buf.Bytes()
		}
	}
	art, err := Assemble(hash, experiment.ModelVersion, spec, curves)
	if err != nil {
		return nil, err
	}
	return &Outcome{Artifact: art, Timelines: timelines}, nil
}

// cellObs returns one cell's observability: the caller's options, plus
// the region fold fed from rep 0's events and, when evidence is on, rep
// 0's stored timeline landing in *rec0. The caller's OnEvent sees the same
// events after the fold; its OnTimeline runs only when the caller itself
// asked for timelines, so a caller without Timeline never buffers one per
// cell.
func cellObs(caller *experiment.ObsOptions, evidence bool, fold *regionFold,
	rec0 **obs.Recorder) *experiment.ObsOptions {
	keep := func(r *obs.Recorder) { *rec0 = r }
	if caller == nil {
		return &experiment.ObsOptions{Timeline: evidence, OnEvent: fold.add, OnTimeline: keep}
	}
	o := *caller
	o.Timeline = evidence || caller.Timeline
	o.OnEvent = fold.add
	if on := caller.OnEvent; on != nil {
		o.OnEvent = func(ev obs.Event) { fold.add(ev); on(ev) }
	}
	o.OnTimeline = keep
	if on := caller.OnTimeline; on != nil && caller.Timeline {
		o.OnTimeline = func(r *obs.Recorder) { keep(r); on(r) }
	}
	return &o
}

// buildPoint folds one cell's series and its rep-0 region fold into a
// sweep point.
func buildPoint(factor float64, seed uint64, times []sim.Time, fold *regionFold) SweepPoint {
	p := SweepPoint{Factor: factor, Seed: seed, TimesNs: make([]int64, len(times))}
	ms := make([]float64, len(times))
	for i, t := range times {
		p.TimesNs[i] = int64(t)
		ms[i] = float64(t) / 1e6
	}
	p.MeanMs, p.MeanLoMs, p.MeanHiMs = stats.MeanCI(ms, 0.95)
	p.RegionsMs = fold.regions
	p.TimelineEvents = fold.events
	return p
}

// regionFold sums one rep's span durations (ms) by region as its timeline
// events are emitted, and counts the events.
type regionFold struct {
	regions map[string]float64
	events  int
}

func (f *regionFold) add(ev obs.Event) {
	f.events++
	if ev.Dur <= 0 {
		return
	}
	if r := regionCategory(ev.Cat); r != "" {
		f.regions[r] += float64(ev.Dur) / 1e6
	}
}

// regionCategory maps a timeline span category to an analysis region:
// workload compute, barrier waits, blocked-on-device I/O waits, hard/soft
// interrupt handlers, OS housekeeping, and noise threads (natural noise +
// injected replay).
// Scheduler-internal instants and unknown categories fall outside every
// region.
func regionCategory(cat string) string {
	switch cat {
	case "workload":
		return "compute"
	case "barrier":
		return "barrier"
	case "irq_noise":
		return "irq"
	case "softirq_noise":
		return "softirq"
	case "os":
		return "os"
	case "io":
		return "io"
	case "noise", "injector", "thread_noise":
		return "noise"
	}
	return ""
}

// fitCurve fits the source's overall sensitivity (mean time vs factor) and
// each region's, and names the gated region (steepest positive region
// slope, region name breaking ties).
func fitCurve(source string, ladder []float64, points []SweepPoint) (SourceCurve, error) {
	ys := make([]float64, len(points))
	for i, p := range points {
		ys[i] = p.MeanMs
	}
	fit, err := stats.LinearFit(ladder, ys)
	if err != nil {
		return SourceCurve{}, fmt.Errorf("analyze: fitting %s: %w", source, err)
	}
	c := SourceCurve{Source: source, Points: points, Fit: fit}

	regions := map[string]bool{}
	for _, p := range points {
		for r := range p.RegionsMs {
			regions[r] = true
		}
	}
	names := make([]string, 0, len(regions))
	for r := range regions {
		names = append(names, r)
	}
	// Insertion sort keeps the import list short; region sets are tiny.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	best, bestSlope := "", 0.0
	for _, r := range names {
		rys := make([]float64, len(points))
		for i, p := range points {
			rys[i] = p.RegionsMs[r] // missing -> 0
		}
		rfit, err := stats.LinearFit(ladder, rys)
		if err != nil {
			return SourceCurve{}, fmt.Errorf("analyze: fitting %s/%s: %w", source, r, err)
		}
		c.RegionFits = append(c.RegionFits, RegionFit{Region: r, Fit: rfit})
		if rfit.Slope > bestSlope {
			best, bestSlope = r, rfit.Slope
		}
	}
	c.GatedRegion = best
	return c, nil
}
