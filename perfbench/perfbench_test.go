package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark when an
// untraced run launches it to time set-up.
func TestMain(m *testing.M) {
	if os.Getenv(setupOnlyEnv) != "" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, traced bool) *config {
	return &config{workload: workload, seed: 5, seconds: 0.2, trace: traced,
		root: "..", state: t.TempDir(), tiny: true}
}

// runTiny runs the benchmark in process and returns its result line.
func runTiny(t *testing.T, c *config) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), c, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", c.workload, err, out.String())
	}
	t.Logf("%s trace=%v:\n%s", c.workload, c.trace, out.String())
	return res
}

// TestSmokeEveryMetric runs every workload of BENCHMARK.json at tiny size,
// untraced and traced, and checks that each prints every metric the file
// names, with its unit, and that every output passes its checks.
func TestSmokeEveryMetric(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runTiny(t, tinyConfig(t, w.Name, false))
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}

			c := tinyConfig(t, w.Name, true)
			res = runTiny(t, c)
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			raw, err := os.ReadFile(filepath.Join(c.state, "perfbench-trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			spans := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					spans++
				}
			}
			if spans == 0 {
				t.Error("trace file holds no spans")
			}
		})
	}
}

// TestCorruptedOutputRaisesFailRatio corrupts the second checked output of
// each workload's traced run (three passes, so the operation count is
// fixed), after the operation ran and before it is checked: a study
// digest, an analysis artifact and a served job result must each count as
// exactly one failure.
func TestCorruptedOutputRaisesFailRatio(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := tinyConfig(t, name, true)
			calls := 0
			c.tamper = func(out []byte) []byte {
				calls++
				if calls == 2 {
					out[len(out)/2] ^= 0xff
				}
				return out
			}
			res := runTiny(t, c)
			if res.Failed != 1 || res.Correct {
				t.Fatalf("correct=%v attempted=%d failed=%d, want exactly one failure",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}
