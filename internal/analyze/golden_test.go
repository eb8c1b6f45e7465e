package analyze

// The analysis golden test: pins the exact artifact bytes of a bottleneck
// analysis and proves them invariant across executor parallelism (1 vs 8),
// the world lifecycle (pooled vs fresh worlds), and caller observability
// (attached vs not) — the same invariance matrix TestGoldenKernel pins for
// the kernel, lifted to the analysis artifact.
//
// Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/analyze
// -run TestGoldenAnalyze — but only when a deliberate, reviewed behaviour
// change is intended.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

const goldenPath = "testdata/golden_analyze.json"

func goldenSpec() Spec {
	return Spec{
		Platform: "tiny-test", Workload: "nbody", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 42, Reps: 3,
		Sources:  []string{"daemon", "irq", "bandwidth"},
		Ladder:   []float64{1, 4},
		Timeline: true,
	}
}

func runGolden(t *testing.T, exec experiment.Executor) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), exec, goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func encode(t *testing.T, out *Outcome) []byte {
	t.Helper()
	enc, err := out.Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestGoldenAnalyze generates (and checks) the fixture through fresh worlds
// at parallelism 1 — the determinism reference — then demands the same
// bytes from every other point of the matrix.
func TestGoldenAnalyze(t *testing.T) {
	base := encode(t, runGolden(t, experiment.Executor{Parallelism: 1, Worlds: experiment.FreshWorlds()}))

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(base, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", goldenPath, len(base))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with REPRO_UPDATE_GOLDEN=1 to create): %v", err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if !bytes.Equal(base, want) {
		t.Fatalf("artifact diverged from golden fixture:\n got %d bytes: %.200s...\nwant %d bytes: %.200s...",
			len(base), base, len(want), want)
	}

	for _, pooled := range []bool{false, true} {
		for _, parallelism := range []int{1, 8} {
			for _, withObs := range []bool{false, true} {
				if !pooled && parallelism == 1 && !withObs {
					continue // the base run
				}
				exec := experiment.Executor{Parallelism: parallelism, Worlds: experiment.FreshWorlds()}
				if pooled {
					exec.Worlds = experiment.NewWorldPool()
				}
				if withObs {
					exec.Obs = &experiment.ObsOptions{Timeline: true, Ring: 128, Reg: obs.NewRegistry()}
				}
				got := encode(t, runGolden(t, exec))
				if !bytes.Equal(got, base) {
					t.Fatalf("pooled=%v p=%d obs=%v: artifact bytes differ from the fresh parallelism-1 run",
						pooled, parallelism, withObs)
				}
			}
		}
	}
}

// TestGoldenAnalyzeTimelines: the exported evidence must be byte-identical
// across the same matrix (the timelines come from rep 0's recorder, which
// the executor pins regardless of parallelism or world reuse).
func TestGoldenAnalyzeTimelines(t *testing.T) {
	base := runGolden(t, experiment.Executor{Parallelism: 1, Worlds: experiment.FreshWorlds()})
	if len(base.Timelines) != 3 {
		t.Fatalf("expected 3 evidence timelines, got %d", len(base.Timelines))
	}
	for _, ref := range base.Artifact.Timelines {
		tl, ok := base.Timelines[ref.Source]
		if !ok || len(tl) == 0 {
			t.Fatalf("artifact references %s evidence but none was exported", ref.Source)
		}
		if ref.Events <= 0 {
			t.Fatalf("timeline ref %s has no events", ref.Source)
		}
	}
	other := runGolden(t, experiment.Executor{Parallelism: 8, Worlds: experiment.NewWorldPool()})
	for src, tl := range base.Timelines {
		if !bytes.Equal(tl, other.Timelines[src]) {
			t.Fatalf("timeline %s differs between fresh parallelism 1 and pooled parallelism 8", src)
		}
	}
}

// TestRunNoTimelineExport: with Timeline off the artifact carries no
// references and no evidence is exported, but the region breakdown (folded
// from rep 0's events, not from a stored timeline) is still present.
func TestRunNoTimelineExport(t *testing.T) {
	spec := goldenSpec()
	spec.Timeline = false
	out, err := Run(context.Background(), experiment.Executor{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timelines) != 0 || len(out.Artifact.Timelines) != 0 {
		t.Fatal("timeline evidence exported despite Timeline=false")
	}
	for _, c := range out.Artifact.Curves {
		for _, p := range c.Points {
			if len(p.RegionsMs) == 0 {
				t.Fatalf("region breakdown missing for %s x%g", c.Source, p.Factor)
			}
		}
	}
}
