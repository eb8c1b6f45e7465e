package fleet

// Fleet analysis e2e: a three-backend fleet runs a bottleneck analysis with
// the per-source sweeps routed across shards, and the merged artifact is
// byte-identical to a single daemon's (and therefore to a direct
// analyze.Run — the service e2e pins that equality). Resubmission is a
// merged-cache hit executing zero reps anywhere, and the per-source
// evidence timelines mirror through the coordinator. Runs under -race.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/service"
)

func fleetAnalysisSpec(seed uint64) analyze.Spec {
	return analyze.Spec{
		Platform: "tiny-test", Workload: "nbody", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: seed, Reps: 3,
		Sources:  []string{"daemon", "irq", "bandwidth"},
		Ladder:   []float64{1, 4},
		Timeline: true,
	}
}

// submitFleetAnalysis posts a bare analysis spec to the coordinator.
func submitFleetAnalysis(t *testing.T, f *testFleet, spec analyze.Spec, want ...int) service.JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.coordTS.URL+"/v1/analyses", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	ok := false
	for _, w := range want {
		ok = ok || resp.StatusCode == w
	}
	if !ok {
		t.Fatalf("submit analysis: HTTP %d (want %v): %s", resp.StatusCode, want, data)
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit analysis: decoding %q: %v", data, err)
	}
	return st
}

// TestFleetAnalysisByteIdentical is the acceptance criterion: the merged
// artifact of a 3-backend fleet analysis equals a single daemon's bytes,
// with one source sweep routed per shard.
func TestFleetAnalysisByteIdentical(t *testing.T) {
	spec := fleetAnalysisSpec(42)
	want := directPayload(t, service.JobSpec{Analyze: &spec})

	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})
	clone := fleetAnalysisSpec(42)
	st := submitFleetAnalysis(t, f, clone, http.StatusAccepted)
	if got := f.awaitTerminal(t, st.ID); got != service.StateDone {
		final, _ := f.coord.Status(st.ID)
		t.Fatalf("fleet analysis %s: %s", got, final.Error)
	}

	got := fetchFleetResult(t, f.coordTS, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet artifact differs from single-daemon run:\n%.300s\nvs\n%.300s", got, want)
	}

	// Three sources, fan-out one chunk per backend: each sub-job carries a
	// distinct source, and progress aggregates in rep units.
	final, _ := f.coord.Status(st.ID)
	if len(final.SubJobs) != 3 {
		t.Fatalf("fan-out %d sub-jobs, want 3", len(final.SubJobs))
	}
	totalReps := spec.TotalReps()
	if final.RepsTotal != totalReps || final.RepsDone != totalReps {
		t.Fatalf("progress %d/%d, want %d/%d", final.RepsDone, final.RepsTotal, totalReps, totalReps)
	}
	subReps := 0
	for _, sub := range final.SubJobs {
		subReps += sub.Reps
	}
	if subReps != totalReps {
		t.Fatalf("sub-job rep budgets sum to %d, want %d", subReps, totalReps)
	}

	// Per-source evidence mirrors through the coordinator and matches the
	// single-daemon bytes; the headline endpoint serves the bottleneck's.
	art, err := analyze.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Timelines) != 3 {
		t.Fatalf("artifact references %d timelines, want 3", len(art.Timelines))
	}
	for _, ref := range art.Timelines {
		resp, err := http.Get(f.coordTS.URL + "/v1/analyses/" + st.ID + "/timeline/" + ref.Source)
		if err != nil {
			t.Fatal(err)
		}
		tl, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(tl) == 0 {
			t.Fatalf("timeline %s: HTTP %d (%d bytes)", ref.Source, resp.StatusCode, len(tl))
		}
	}
	resp, err := http.Get(f.coordTS.URL + "/v1/analyses/" + st.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	headline, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(headline) == 0 {
		t.Fatalf("headline timeline: HTTP %d (%d bytes)", resp.StatusCode, len(headline))
	}
}

// TestFleetAnalysisResubmitZeroExecution: a second submission of the same
// sweep is a merged-cache hit on the coordinator — no backend executes
// anything, and the bytes are identical.
func TestFleetAnalysisResubmitZeroExecution(t *testing.T) {
	f := newTestFleet(t, 3, service.Config{Workers: 2}, Config{})

	first := submitFleetAnalysis(t, f, fleetAnalysisSpec(7), http.StatusAccepted)
	if got := f.awaitTerminal(t, first.ID); got != service.StateDone {
		final, _ := f.coord.Status(first.ID)
		t.Fatalf("fleet analysis %s: %s", got, final.Error)
	}
	payload1 := fetchFleetResult(t, f.coordTS, first.ID)
	execs := backendExecutions(f)
	if execs == 0 {
		t.Fatal("first fleet analysis executed nothing")
	}

	second := submitFleetAnalysis(t, f, fleetAnalysisSpec(7), http.StatusOK)
	if second.State != service.StateDone || !second.Cached {
		t.Fatalf("resubmission not served from the merged cache: %+v", second)
	}
	payload2 := fetchFleetResult(t, f.coordTS, second.ID)
	if !bytes.Equal(payload1, payload2) {
		t.Fatal("cached fleet artifact differs from the first run")
	}
	if got := backendExecutions(f); got != execs {
		t.Fatalf("resubmission executed on a backend: executions %d -> %d", execs, got)
	}
	if !strings.Contains(coordMetrics(t, f.coordTS), "noisefleet_merged_cache_hits_total 1") {
		t.Fatal("coordinator metrics missing the merged-cache hit")
	}
}

// TestFleetAnalysisMalformed400: validation runs at the coordinator's edge,
// before any fan-out.
func TestFleetAnalysisMalformed400(t *testing.T) {
	f := newTestFleet(t, 2, service.Config{}, Config{})
	bad := fleetAnalysisSpec(1)
	bad.Sources = []string{"gpu"}
	body, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.coordTS.URL+"/v1/analyses", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown source: HTTP %d (want 400): %s", resp.StatusCode, data)
	}
}
