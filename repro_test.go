package repro

// Integration tests of the public facade: they exercise the documented API
// end to end on small configurations.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestFacadePlatformsAndWorkloads(t *testing.T) {
	if len(PlatformNames()) != 4 {
		t.Fatalf("platforms: %v", PlatformNames())
	}
	if len(WorkloadNames()) != 6 {
		t.Fatalf("workloads: %v", WorkloadNames())
	}
	for _, name := range PlatformNames() {
		if _, err := NewPlatform(name); err != nil {
			t.Fatalf("NewPlatform(%q): %v", name, err)
		}
	}
	if _, err := NewPlatform("pdp-11"); err == nil {
		t.Fatal("unknown platform should error")
	}
	if len(Strategies()) != 6 {
		t.Fatal("six strategy columns expected")
	}
}

func TestFacadeEndToEndPipeline(t *testing.T) {
	p, err := NewPlatform(machine.TinyTest)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.TinySpec("nbody")
	if err != nil {
		t.Fatal(err)
	}

	// Baseline.
	times, traces, err := Executor{}.Series(context.Background(), Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: Rm,
		Seed: 1, Tracing: true,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 8 || len(traces) != 8 {
		t.Fatal("series incomplete")
	}

	// Stage 2 by hand: profile -> worst -> refine -> generate.
	profile := BuildProfile(traces)
	worst, _, err := WorstCase(traces)
	if err != nil {
		t.Fatal(err)
	}
	refined := Refine(worst, profile)
	cfg := Generate(refined, true)
	if cfg.Window != worst.ExecTime {
		t.Fatal("config window mismatch")
	}

	// Stage 3.
	res, err := RunOnce(Spec{
		Platform: p, Workload: w, Model: "omp", Strategy: RmHK,
		Seed: 99, Inject: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("injected run produced no time")
	}

	// Trace text round trip through the facade.
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, worst); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.ExecTime != worst.ExecTime || len(back.Events) != len(worst.Events) {
		t.Fatal("trace text round trip lost data")
	}
}

func TestFacadeBuildConfig(t *testing.T) {
	p, err := NewPlatform(machine.TinyTest)
	if err != nil {
		t.Fatal(err)
	}
	// BuildConfigExec resolves the platform-sized workload internally; use
	// the tiny platform where sizes are the defaults.
	cfg, pr, err := BuildConfigExec(context.Background(), Executor{}, p, "schedbench",
		ConfigSource{Model: "omp", Strategy: TP, ID: 1}, 6, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Validate() != nil || pr.Worst == nil {
		t.Fatal("BuildConfigExec artifacts incomplete")
	}
}

func TestFacadeRenderHelpers(t *testing.T) {
	rows := []OverheadRow{{Workload: "nbody", OffSec: 1, OnSec: 1.005, IncreasePct: 0.5}}
	if !strings.Contains(RenderTable1(rows).Text(), "nbody") {
		t.Fatal("RenderTable1 broken")
	}
	agg := map[string][]float64{
		"omp":  {40, 20, 17, 49, 27, 24},
		"sycl": {19, 10, 8, 22, 10, 9},
	}
	if !strings.Contains(RenderTable6(agg).Text(), "Table 6") {
		t.Fatal("RenderTable6 broken")
	}
	checks := CheckInjectionShape(agg)
	if len(checks) == 0 {
		t.Fatal("no shape checks")
	}
	var buf bytes.Buffer
	if err := WriteChecks(&buf, checks); err != nil {
		t.Fatal(err)
	}
	if MeanAccuracy(nil) != 0 {
		t.Fatal("MeanAccuracy(nil)")
	}
	if len(PaperAccuracyCases()) != 10 {
		t.Fatal("ten paper accuracy cases expected")
	}
	if DefaultReps().Collect <= 0 {
		t.Fatal("DefaultReps broken")
	}
}
