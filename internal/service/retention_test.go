package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// holdRunner answers every job at once with bytes naming its hash, except
// jobs with seed 999, which run until they are canceled.
type holdRunner struct{}

func (holdRunner) Run(ctx context.Context, job *Job) ([]byte, error) {
	if job.Spec.Seed == 999 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return []byte("result " + job.Hash), nil
}

// TestFinishedJobsAreForgotten pins the job-retention bound: after more
// than finishedKeep jobs finish, the oldest finished job's ID answers 404,
// while a running job older than all of them and the newest finished job
// are still served.
func TestFinishedJobsAreForgotten(t *testing.T) {
	srv, err := NewServer(Config{Workers: 2}, holdRunner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newJobWatcher(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	oldest := submit(t, ts, tinySpec(1, 1), http.StatusAccepted)
	if st := waitTerminal(t, ts, w, oldest.ID); st.State != StateDone {
		t.Fatalf("first job %s, want done", st.State)
	}
	want := fetchResult(t, ts, oldest.ID)
	running := submit(t, ts, tinySpec(999, 1), http.StatusAccepted)
	w.await(t, running.ID, func(s JobState) bool { return s == StateRunning })

	// Every resubmit is a cache hit that finishes at submit time; with the
	// first job, finishedKeep+10 jobs have finished.
	var newest JobStatus
	for i := 0; i < finishedKeep+9; i++ {
		newest = submit(t, ts, tinySpec(1, 1), http.StatusOK, http.StatusAccepted)
	}

	for _, path := range []string{"/v1/jobs/" + oldest.ID, "/v1/jobs/" + oldest.ID + "/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s after eviction: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	if st, ok := srv.Status(running.ID); !ok || st.State != StateRunning {
		t.Errorf("running job: found=%v state=%s, want it kept and running", ok, st.State)
	}
	if st := waitTerminal(t, ts, w, newest.ID); st.State != StateDone || !st.Cached {
		t.Fatalf("newest job %+v, want done from the cache", st)
	}
	if got := fetchResult(t, ts, newest.ID); string(got) != string(want) {
		t.Fatalf("newest result %q, want %q", got, want)
	}
	srv.mu.Lock()
	kept := len(srv.jobs)
	srv.mu.Unlock()
	if kept != finishedKeep+1 {
		t.Fatalf("server tracks %d jobs, want %d finished plus 1 running", kept, finishedKeep+1)
	}
}
