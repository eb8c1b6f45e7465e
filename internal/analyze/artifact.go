package analyze

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/stats"
)

// SweepPoint is one sweep cell's measurement: the per-rep times at one
// (source, factor), their mean with a deterministic bootstrap CI, and the
// rep-0 region breakdown read from the scheduling timeline.
type SweepPoint struct {
	// Factor is the intensity factor this cell scaled its source by.
	Factor float64 `json:"factor"`
	// Seed is the cell's base seed (rep i derives its own via SeedAt).
	Seed uint64 `json:"seed"`
	// TimesNs are the raw per-rep execution times — the deterministic
	// ground truth every derived number comes from.
	TimesNs []int64 `json:"times_ns"`
	// MeanMs is the mean execution time; MeanLoMs/MeanHiMs its 95%
	// bootstrap CI (stats.MeanCI).
	MeanMs   float64 `json:"mean_ms"`
	MeanLoMs float64 `json:"mean_lo_ms"`
	MeanHiMs float64 `json:"mean_hi_ms"`
	// RegionsMs breaks rep 0's timeline events, folded as they are
	// emitted, into region CPU time (ms): compute (workload spans), barrier
	// (barrier waits), irq/softirq (interrupt handlers), os, and noise
	// (noise + injector threads). encoding/json sorts map keys, so the
	// encoding is canonical.
	RegionsMs map[string]float64 `json:"regions_ms,omitempty"`
	// TimelineEvents counts rep 0's timeline events (those the timeline
	// window admits, stored or not) — metadata for the evidence reference,
	// deterministic like everything else.
	TimelineEvents int `json:"timeline_events,omitempty"`
}

// RegionFit is the sensitivity fit of one region's time against the
// intensity ladder.
type RegionFit struct {
	Region string       `json:"region"`
	Fit    stats.LinFit `json:"fit"`
}

// SourceCurve is one source class's full sweep: its points in ladder
// order, the overall sensitivity fit (mean time vs factor), and the
// per-region fits.
type SourceCurve struct {
	Source string       `json:"source"`
	Points []SweepPoint `json:"points"`
	// Fit regresses MeanMs against Factor: Slope is the source's
	// sensitivity in ms per intensity step.
	Fit stats.LinFit `json:"fit"`
	// RegionFits regress each region's rep-0 time against Factor, sorted
	// by region name. The region with the steepest positive slope is what
	// this resource gates.
	RegionFits []RegionFit `json:"region_fits,omitempty"`
	// GatedRegion is that steepest-slope region ("" when no region moved).
	GatedRegion string `json:"gated_region,omitempty"`
}

// RankEntry is one row of the bottleneck ranking.
type RankEntry struct {
	Rank   int    `json:"rank"`
	Source string `json:"source"`
	// SlopeMs is the fitted sensitivity (ms per intensity step) with its
	// 95% CI; SlopePct expresses it relative to the fitted intercept (the
	// extrapolated zero-noise time), 0 when the intercept is not positive.
	SlopeMs   float64 `json:"slope_ms"`
	SlopeLoMs float64 `json:"slope_lo_ms"`
	SlopeHiMs float64 `json:"slope_hi_ms"`
	SlopePct  float64 `json:"slope_pct"`
	R2        float64 `json:"r2"`
	// GatedRegion names the region this source's ladder moved most.
	GatedRegion string `json:"gated_region,omitempty"`
}

// TimelineRef points at one exported timeline evidence file: the rep-0
// scheduling timeline of the source's highest ladder point, in Chrome
// trace-event JSON. File is the canonical name the CLI writes and the
// daemon serves the bytes under.
type TimelineRef struct {
	Source string  `json:"source"`
	Factor float64 `json:"factor"`
	Events int     `json:"events"`
	File   string  `json:"file"`
}

// TimelineFile is the canonical evidence file name for a source.
func TimelineFile(source string) string {
	return fmt.Sprintf("timeline-%s.json", source)
}

// Artifact is the reproducible manifest of one bottleneck analysis:
// normalized spec, model version, seed schedule, per-source sensitivity
// curves with fitted slopes and CIs, the bottleneck ranking, and timeline
// references. Encode produces canonical bytes, so the same analysis yields
// byte-identical artifacts via CLI, daemon, or fleet.
type Artifact struct {
	SpecHash     string `json:"spec_hash"`
	ModelVersion string `json:"model_version"`
	Spec         Spec   `json:"spec"`
	// Sources and Ladder are the effective sweep dimensions (defaults
	// expanded), so the artifact reads standalone.
	Sources []string  `json:"sources"`
	Ladder  []float64 `json:"ladder"`
	// RepsPerPoint and TotalReps record the rep budget.
	RepsPerPoint int `json:"reps_per_point"`
	TotalReps    int `json:"total_reps"`
	// SeedSchedule lists every cell's base seed in (source, ladder) order —
	// the exact schedule a re-run will follow.
	SeedSchedule []SeedEntry `json:"seed_schedule"`
	// Curves holds one sweep per source, in source order.
	Curves []SourceCurve `json:"curves"`
	// Ranking orders sources by fitted sensitivity, steepest first.
	Ranking []RankEntry `json:"ranking"`
	// Bottleneck is the top-ranked source; GatedRegion the region its
	// ladder moved most.
	Bottleneck  string `json:"bottleneck"`
	GatedRegion string `json:"gated_region,omitempty"`
	// Timelines references the exported evidence (Spec.Timeline only).
	Timelines []TimelineRef `json:"timelines,omitempty"`
}

// SeedEntry records the base seed of one sweep cell.
type SeedEntry struct {
	Source string  `json:"source"`
	Factor float64 `json:"factor"`
	Seed   uint64  `json:"seed"`
}

// Assemble builds the artifact from fitted curves: it derives the seed
// schedule, ranking, bottleneck and timeline references, all deterministic
// functions of the inputs. Both the direct runner and the fleet merger go
// through it, which is what makes their artifacts byte-identical: merge
// re-assembles from the same curves the direct path fitted.
//
// modelVersion is experiment.ModelVersion at run time; curves must be in
// spec.EffectiveSources() order with points in ladder order.
func Assemble(specHash, modelVersion string, spec Spec, curves []SourceCurve) (*Artifact, error) {
	sources := spec.EffectiveSources()
	ladder := spec.EffectiveLadder()
	if len(curves) != len(sources) {
		return nil, fmt.Errorf("analyze: %d curves for %d sources", len(curves), len(sources))
	}
	art := &Artifact{
		SpecHash:     specHash,
		ModelVersion: modelVersion,
		Spec:         spec,
		Sources:      sources,
		Ladder:       ladder,
		RepsPerPoint: spec.Reps,
		TotalReps:    spec.TotalReps(),
		Curves:       curves,
	}
	for i, src := range sources {
		if curves[i].Source != src {
			return nil, fmt.Errorf("analyze: curve %d is %q, want %q", i, curves[i].Source, src)
		}
		if len(curves[i].Points) != len(ladder) {
			return nil, fmt.Errorf("analyze: source %s has %d points, want %d", src, len(curves[i].Points), len(ladder))
		}
		for j, f := range ladder {
			p := curves[i].Points[j]
			if p.Factor != f {
				return nil, fmt.Errorf("analyze: source %s point %d has factor %g, want %g", src, j, p.Factor, f)
			}
			art.SeedSchedule = append(art.SeedSchedule, SeedEntry{Source: src, Factor: f, Seed: p.Seed})
		}
	}
	// Rank by fitted slope, steepest first; name order breaks ties so the
	// ranking is a deterministic function of the curves.
	order := make([]int, len(curves))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := curves[order[a]], curves[order[b]]
		if ca.Fit.Slope != cb.Fit.Slope {
			return ca.Fit.Slope > cb.Fit.Slope
		}
		return ca.Source < cb.Source
	})
	for rank, idx := range order {
		c := curves[idx]
		e := RankEntry{
			Rank:        rank + 1,
			Source:      c.Source,
			SlopeMs:     c.Fit.Slope,
			SlopeLoMs:   c.Fit.SlopeLo,
			SlopeHiMs:   c.Fit.SlopeHi,
			R2:          c.Fit.R2,
			GatedRegion: c.GatedRegion,
		}
		if c.Fit.Intercept > 0 {
			e.SlopePct = 100 * c.Fit.Slope / c.Fit.Intercept
		}
		art.Ranking = append(art.Ranking, e)
	}
	art.Bottleneck = art.Ranking[0].Source
	art.GatedRegion = art.Ranking[0].GatedRegion
	if spec.Timeline {
		top := ladder[len(ladder)-1]
		for i, src := range sources {
			art.Timelines = append(art.Timelines, TimelineRef{
				Source: src,
				Factor: top,
				Events: curves[i].Points[len(ladder)-1].TimelineEvents,
				File:   TimelineFile(src),
			})
		}
	}
	return art, nil
}

// Encode returns the artifact's canonical JSON bytes — the payload the
// cache stores, the daemon serves, and the golden fixtures pin.
func (a *Artifact) Encode() ([]byte, error) {
	enc, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("analyze: encoding artifact: %w", err)
	}
	return enc, nil
}

// Decode parses canonical artifact bytes.
func Decode(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("analyze: decoding artifact: %w", err)
	}
	return &a, nil
}
