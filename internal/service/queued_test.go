package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// streamStates waits for a job's event stream to finish and returns the
// states it carried, in order.
func streamStates(t *testing.T, srv *Server, id string) []JobState {
	t.Helper()
	log, ok := srv.Events(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	for {
		evs, wait, finished := log.next(0)
		if finished {
			var states []JobState
			for _, e := range evs {
				var s struct {
					State JobState `json:"state"`
				}
				if e.Type == "state" && json.Unmarshal([]byte(e.Data), &s) == nil {
					states = append(states, s.State)
				}
			}
			return states
		}
		select {
		case <-wait:
		case <-time.After(time.Minute):
			t.Fatalf("job %s: stream never finished", id)
		}
	}
}

// TestSubmitPublishesQueuedFirst pins the submit critical section: a job
// publishes "queued" before any worker can take it, and a submission the
// full queue rejects leaves no job behind — no status, no hook call, no
// used-up job ID. The state hook holds the only worker so the queue
// fills.
func TestSubmitPublishesQueuedFirst(t *testing.T) {
	srv, err := NewServer(Config{Workers: 1, QueueSize: 1}, holdRunner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	hooked := make(map[string]bool)
	srv.testHookJobUpdate = func(id string, state JobState) {
		mu.Lock()
		hooked[id] = true
		mu.Unlock()
		if id == "j000001" && state == StateRunning {
			close(held)
			<-release
		}
	}

	first, err := srv.Submit(tinySpec(61, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-held
	if _, err := srv.Submit(tinySpec(62, 1)); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := srv.Submit(tinySpec(63, 1)); !errors.Is(err, errQueueFull) {
		t.Fatalf("submit to a full queue: %v, want %v", err, errQueueFull)
	}
	if _, ok := srv.Status("j000003"); ok {
		t.Fatal("the rejected submission is visible as j000003")
	}
	mu.Lock()
	n := len(hooked)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("state hook saw %d jobs, want 2 (none for the rejected submission)", n)
	}
	close(release)
	want := []JobState{StateQueued, StateRunning, StateDone}
	for _, id := range []string{first.ID, "j000002"} {
		if got := streamStates(t, srv, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s streamed states %v, want %v", id, got, want)
		}
	}
	next, err := srv.Submit(tinySpec(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j000003" {
		t.Fatalf("next accepted job is %s, want j000003: the rejected submission used up an ID", next.ID)
	}
}

// TestQueuedBeforeRunningUnderLoad submits jobs to idle workers, which
// take each job as soon as it is queued: every stream must still start
// with "queued".
func TestQueuedBeforeRunningUnderLoad(t *testing.T) {
	srv, err := NewServer(Config{Workers: 4}, holdRunner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	want := []JobState{StateQueued, StateRunning, StateDone}
	for i := 0; i < 500; i++ {
		job, err := srv.Submit(tinySpec(uint64(1000+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := streamStates(t, srv, job.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s streamed states %v, want %v", job.ID, got, want)
		}
	}
}

// TestHookSeesQueuedFirst pins the state hook's contract: a job's hook
// calls start with "queued". The hook holds the queued call until the
// job's "running" call arrives or a second passes, so a submitter that
// notified only after the enqueue, with the idle worker free to take the
// job, would see "running" overtake it every time.
func TestHookSeesQueuedFirst(t *testing.T) {
	srv, err := NewServer(Config{Workers: 1}, holdRunner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var mu sync.Mutex
	var states []JobState
	running, done := make(chan struct{}), make(chan struct{})
	srv.testHookJobUpdate = func(id string, state JobState) {
		if state == StateQueued {
			select {
			case <-running:
			case <-time.After(time.Second):
			}
		}
		mu.Lock()
		states = append(states, state)
		mu.Unlock()
		switch {
		case state == StateRunning:
			close(running)
		case state.Terminal():
			close(done)
		}
	}
	if _, err := srv.Submit(tinySpec(71, 1)); err != nil {
		t.Fatal(err)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if want := []JobState{StateQueued, StateRunning, StateDone}; !reflect.DeepEqual(states, want) {
		t.Fatalf("hook saw %v, want %v", states, want)
	}
}
