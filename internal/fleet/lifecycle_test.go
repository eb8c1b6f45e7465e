package fleet

// Coordinator lifecycle tests: a fleet job's end reaches its backend
// sub-jobs, identical concurrent submissions fan out once, and the
// coordinator serves the daemon's observability endpoints.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// parkBackends occupies every backend's single worker with a long job, so
// fleet sub-jobs queue behind it, and returns a func that cancels them.
func parkBackends(t *testing.T, f *testFleet) (release func()) {
	t.Helper()
	ids := make([]string, len(f.backends))
	for i, b := range f.backends {
		job, err := b.Submit(kernelSpec(uint64(9000+i), 50000))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	return func() {
		for i, b := range f.backends {
			b.Cancel(ids[i])
		}
	}
}

// awaitSubsAccepted waits until every slice of a fleet job has a backend
// job ID and returns the slices.
func awaitSubsAccepted(t *testing.T, f *testFleet, id string, width int) []service.SubStatus {
	t.Helper()
	var subs []service.SubStatus
	f.watch.await(t, "all sub-jobs accepted", func() bool {
		subs = subs[:0]
		for _, s := range f.watch.subs[id] {
			if s.JobID == "" {
				return false
			}
			subs = append(subs, s)
		}
		return len(subs) == width
	})
	return subs
}

// TestFleetEndCancelsBackendSubJobs: when a fleet job ends before its
// slices do — by its timeout or by DELETE — every backend's copy of a
// slice is canceled too, instead of running on for the backend's own
// timeout.
func TestFleetEndCancelsBackendSubJobs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		want    service.JobState
	}{
		{"timeout", 2 * time.Second, service.StateFailed},
		{"delete", 2 * time.Minute, service.StateCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, 3, service.Config{Workers: 1}, Config{JobTimeout: tc.timeout})
			defer parkBackends(t, f)()
			st := submitFleet(t, f.coordTS, kernelSpec(101, 9), http.StatusAccepted)
			subs := awaitSubsAccepted(t, f, st.ID, 3)
			if tc.name == "delete" {
				req, err := http.NewRequest(http.MethodDelete, f.coordTS.URL+"/v1/jobs/"+st.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			if got := f.awaitTerminal(t, st.ID); got != tc.want {
				t.Fatalf("fleet job ended %s, want %s", got, tc.want)
			}
			for _, s := range subs {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				got, err := (&Backend{Name: s.Node}).WaitDone(ctx, s.JobID, nil)
				cancel()
				if err != nil || got != service.StateCanceled {
					t.Fatalf("backend copy of slice %d (%s on %s): state %q, err %v; want canceled",
						s.Offset, s.JobID, s.Node, got, err)
				}
			}
		})
	}
}

// TestFleetSingleFlight: an identical spec submitted while the first
// submission is still fanned out joins that fan-out instead of starting
// its own.
func TestFleetSingleFlight(t *testing.T) {
	f := newTestFleet(t, 3, service.Config{Workers: 1}, Config{})
	release := parkBackends(t, f)
	spec := kernelSpec(103, 9)
	first := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	awaitSubsAccepted(t, f, first.ID, 3)
	second := submitFleet(t, f.coordTS, spec, http.StatusAccepted)
	release()

	var payloads [][]byte
	for _, id := range []string{first.ID, second.ID} {
		if got := f.awaitTerminal(t, id); got != service.StateDone {
			t.Fatalf("job %s: %s", id, got)
		}
		payloads = append(payloads, fetchFleetResult(t, f.coordTS, id))
	}
	if string(payloads[0]) != string(payloads[1]) {
		t.Fatal("identical submissions returned different bytes")
	}
	if text := coordMetrics(t, f.coordTS); !strings.Contains(text, "noisefleet_subjobs_total 3\n") {
		t.Fatalf("identical submissions fanned out more than once:\n%s", text)
	}
}

// TestCoordinatorObservabilityEndpoints: the coordinator serves the
// daemon's JSON metrics, with the shard families in the runner registry,
// and its flight-recorder endpoint.
func TestCoordinatorObservabilityEndpoints(t *testing.T) {
	f := newTestFleet(t, 2, service.Config{}, Config{})
	st := submitFleet(t, f.coordTS, kernelSpec(107, 4), http.StatusAccepted)
	if got := f.awaitTerminal(t, st.ID); got != service.StateDone {
		t.Fatalf("fleet job: %s", got)
	}
	get := func(path string) []byte {
		resp, err := http.Get(f.coordTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	var doc struct {
		Snapshot service.Snapshot `json:"snapshot"`
		Kernel   struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"kernel"`
	}
	if err := json.Unmarshal(get("/metrics?format=json"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Snapshot.Done != 1 || doc.Kernel.Counters["noisefleet_subjobs_total"] != 2 {
		t.Fatalf("coordinator JSON metrics: snapshot done %d, runner counters %v",
			doc.Snapshot.Done, doc.Kernel.Counters)
	}
	if got := strings.TrimSpace(string(get("/debug/flightrecorder"))); got != "[]" {
		t.Fatalf("coordinator flight recorder: %s, want []", got)
	}
}
