package service

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSubmitStatusIgnoresFinishRace pins the submit routes' status code
// when the worker wins the race: a job that runs and finishes before the
// handler reads its status was still accepted (202), not served from
// cache at submit time (200). The state hook holds each submission at its
// queued notification, inside the handler, until the worker has finished
// the job; a resubmit afterwards is a cache hit and answers 200.
func TestSubmitStatusIgnoresFinishRace(t *testing.T) {
	srv, err := NewServer(Config{Workers: 1}, holdRunner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	finished := make(map[string]chan struct{})
	doneCh := func(id string) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		ch, ok := finished[id]
		if !ok {
			ch = make(chan struct{})
			finished[id] = ch
		}
		return ch
	}
	srv.testHookJobUpdate = func(id string, state JobState) {
		switch {
		case state == StateQueued:
			select {
			case <-doneCh(id):
			case <-time.After(time.Minute):
			}
		case state.Terminal():
			close(doneCh(id))
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	t.Run("jobs", func(t *testing.T) {
		first := submit(t, ts, tinySpec(5, 1), http.StatusAccepted)
		if first.State != StateDone || first.Cached {
			t.Fatalf("job should have run and finished before the status was read: %+v", first)
		}
		if again := submit(t, ts, tinySpec(5, 1), http.StatusOK); !again.Cached {
			t.Fatalf("resubmit not served from cache: %+v", again)
		}
	})
	t.Run("analyses", func(t *testing.T) {
		spec := tinyAnalysisSpec(5)
		first := submitAnalysis(t, ts, spec, http.StatusAccepted)
		if first.State != StateDone || first.Cached {
			t.Fatalf("analysis should have run and finished before the status was read: %+v", first)
		}
		if again := submitAnalysis(t, ts, spec, http.StatusOK); !again.Cached {
			t.Fatalf("analysis resubmit not served from cache: %+v", again)
		}
	})
}
