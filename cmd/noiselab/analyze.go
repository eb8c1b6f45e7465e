package main

// noiselab analyze — differential bottleneck analysis: sweep each noise
// source class independently across an intensity ladder, fit the
// sensitivity slope per (source, region), and rank which resource gates
// the workload. Runs locally by default; -server (or -fleet) submits the
// same spec to a noiselabd daemon or noisefleet coordinator and fetches
// the identical artifact bytes back.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analyze"
	"repro/internal/noise"
	"repro/internal/service"
)

func cmdAnalyze(args []string) error {
	c := newCommon("analyze")
	reps := c.fs.Int("reps", 5, "repetitions per (source, factor) cell")
	size := c.fs.String("size", "", "problem size: default or small")
	sources := c.fs.String("sources", "",
		"comma-separated source classes to sweep (default: all of "+strings.Join(noise.SourceClasses(), ",")+")")
	ladder := c.fs.String("ladder", "",
		"comma-separated intensity factors (default 1,2,4,8)")
	runlevel3 := c.fs.Bool("runlevel3", false, "disable GUI noise during the sweep")
	timeline := c.fs.Bool("timeline", false,
		"export each source's top-rung scheduling timeline as evidence (Chrome trace-event JSON) next to the artifact")
	out := c.fs.String("o", "", "write the artifact JSON to this file (timelines land beside it)")
	server := c.fs.String("server", "",
		"submit to a noiselabd daemon (or noisefleet coordinator) at this base URL instead of running locally")
	fleetMode := c.fs.Bool("fleet", false,
		"client mode against the noisefleet coordinator default "+fleetDefault+" (unless -server overrides)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.rejectDeadline(); err != nil {
		return err
	}
	spec := analyze.Spec{
		Platform: *c.platform, Workload: *c.workload, Size: *size,
		Model: *c.model, Strategy: *c.strategy,
		Seed: *c.seed, Reps: *reps,
		Runlevel3: *runlevel3, Timeline: *timeline,
	}
	if *sources != "" {
		spec.Sources = splitCSV(*sources)
	}
	if *ladder != "" {
		l, err := parseLadder(*ladder)
		if err != nil {
			return err
		}
		spec.Ladder = l
	}
	base := *server
	if base == "" && *fleetMode {
		base = fleetDefault
	}
	if base != "" {
		return analyzeRemote(base, spec, *out)
	}

	res, err := analyze.Run(context.Background(), newExec(), spec)
	if err != nil {
		return err
	}
	var enc []byte
	if *out != "" {
		if enc, err = res.Artifact.Encode(); err != nil {
			return err
		}
	}
	return writeAnalysis(res.Artifact, enc, *out, func(source string) ([]byte, error) {
		return res.Timelines[source], nil
	})
}

// analyzeRemote submits the spec to a daemon or coordinator, waits for it
// and fetches the artifact — byte-identical to a local run of the same
// spec by construction.
func analyzeRemote(base string, spec analyze.Spec, out string) error {
	ctx := context.Background()
	cl := &service.Client{Name: base}
	st, err := cl.SubmitAnalysis(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("analysis %s %s cached=%v spec=%s\n", st.ID, st.State, st.Cached, st.SpecHash[:12])
	if _, err := waitDone(ctx, cl, st.ID, nil); err != nil {
		return err
	}
	enc, err := cl.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	art, err := analyze.Decode(enc)
	if err != nil {
		return err
	}
	return writeAnalysis(art, enc, out, func(source string) ([]byte, error) {
		return cl.AnalysisTimeline(ctx, st.ID, source)
	})
}

// writeAnalysis prints an analysis's ranking, writes its encoded artifact
// to out (when set), and writes each evidence timeline beside it.
func writeAnalysis(art *analyze.Artifact, enc []byte, out string, timeline func(source string) ([]byte, error)) error {
	printAnalysis(art)
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			return err
		}
		fmt.Printf("artifact -> %s (%d bytes)\n", out, len(enc))
	}
	for _, ref := range art.Timelines {
		tl, err := timeline(ref.Source)
		if err != nil {
			fmt.Fprintf(os.Stderr, "timeline %s: %v\n", ref.Source, err)
			continue
		}
		path := timelinePath(out, ref.File)
		if err := os.WriteFile(path, tl, 0o644); err != nil {
			return err
		}
		fmt.Printf("timeline %s x%s -> %s (%d events)\n",
			ref.Source, analyze.FormatFactor(ref.Factor), path, ref.Events)
	}
	return nil
}

// timelinePath places an evidence file beside the artifact (or in the
// working directory when no -o was given).
func timelinePath(artifactPath, file string) string {
	if artifactPath == "" {
		return file
	}
	return filepath.Join(filepath.Dir(artifactPath), file)
}

// printAnalysis renders the ranking table the artifact carries.
func printAnalysis(art *analyze.Artifact) {
	s := art.Spec
	size := s.Size
	if size == "" {
		size = "default"
	}
	fmt.Printf("analysis %s %s/%s %s %s seed=%d: %d sources x %d factors x %d reps = %d runs\n",
		s.Platform, s.Workload, size, s.Model, s.Strategy, s.Seed,
		len(art.Sources), len(art.Ladder), art.RepsPerPoint, art.TotalReps)
	fmt.Printf("model %s  spec %s\n", art.ModelVersion, art.SpecHash[:12])
	fmt.Printf("%-4s %-10s %12s %22s %8s %6s  %s\n",
		"rank", "source", "slope ms/x", "95% CI", "%/x", "r2", "gated region")
	for _, e := range art.Ranking {
		ci := "-"
		if e.SlopeLoMs != 0 || e.SlopeHiMs != 0 {
			ci = fmt.Sprintf("[%.3f, %.3f]", e.SlopeLoMs, e.SlopeHiMs)
		}
		gated := e.GatedRegion
		if gated == "" {
			gated = "-"
		}
		fmt.Printf("%-4d %-10s %12.4f %22s %8.2f %6.3f  %s\n",
			e.Rank, e.Source, e.SlopeMs, ci, e.SlopePct, e.R2, gated)
	}
	fmt.Printf("bottleneck: %s", art.Bottleneck)
	if art.GatedRegion != "" {
		fmt.Printf(" (gates %s)", art.GatedRegion)
	}
	fmt.Println()
}

func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseLadder(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("-ladder: %q is not a number", p)
		}
		out = append(out, f)
	}
	return out, nil
}
