package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/service"
)

// newDaemon serves an in-process noiselabd on loopback HTTP and returns
// its base URL.
func newDaemon(t *testing.T) string {
	t.Helper()
	srv, err := service.New(service.Config{CacheDir: t.TempDir(), Workers: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// summaryLine is the line `get` and `submit -wait` print for a result.
func summaryLine(t *testing.T, payload []byte) string {
	t.Helper()
	var res service.JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	return fmt.Sprintf("%s %s %s %s: n=%d mean=%.2fms sd=%.2fms cv=%.3f min=%.2f p95=%.2f max=%.2f (model %s)\n",
		res.Spec.Platform, res.Spec.Workload, res.Spec.Model, res.Spec.Strategy,
		s.N, s.Mean, s.SD, s.CV, s.Min, s.P95, s.Max, res.ModelVersion)
}

// directPayload encodes the result a daemon must serve for spec: the
// series run straight on the executor, through the daemon's encoder.
func directPayload(t *testing.T, spec service.JobSpec) (hash string, payload []byte) {
	t.Helper()
	spec.Normalize()
	hash, err := service.SpecHash(&spec)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	times, traces, err := experiment.Executor{Parallelism: 1}.Series(context.Background(), resolved, spec.Reps)
	if err != nil {
		t.Fatal(err)
	}
	payload, err = service.BuildResult(hash, spec, times, traces)
	if err != nil {
		t.Fatal(err)
	}
	return hash, payload
}

// splitFirstLine cuts a submit line off out and checks it against
// "<kind> <id> <state> cached=<cached> spec=<hash12>", where the state
// is whatever the job reached by the time the server answered.
func splitFirstLine(t *testing.T, out, kind, id, hash string, cached bool) (rest string) {
	t.Helper()
	line, rest, _ := strings.Cut(out, "\n")
	for _, st := range []service.JobState{service.StateQueued, service.StateRunning, service.StateDone} {
		if line == fmt.Sprintf("%s %s %s cached=%v spec=%s", kind, id, st, cached, hash[:12]) {
			return rest
		}
	}
	t.Fatalf("first line %q, want %q with state queued, running or done", line,
		fmt.Sprintf("%s %s <state> cached=%v spec=%s", kind, id, cached, hash[:12]))
	return ""
}

// TestClientCommands drives noiselab's client subcommands against a
// daemon and pins what they print: every result the daemon hands back
// is byte-equal to a direct run of the same spec.
func TestClientCommands(t *testing.T) {
	base := newDaemon(t)
	dir := t.TempDir()
	jobFlags := func(seed string, extra ...string) []string {
		return append([]string{"-server", base, "-platform", "tiny-test", "-workload", "schedbench",
			"-size", "small", "-model", "omp", "-strategy", "Rm", "-seed", seed, "-reps", "3"}, extra...)
	}
	spec := func(seed uint64) service.JobSpec {
		return service.JobSpec{Platform: "tiny-test", Workload: "schedbench", Size: "small",
			Model: "omp", Strategy: "Rm", Seed: seed, Reps: 3}
	}
	hash, want := directPayload(t, spec(11))
	sum := summaryLine(t, want)

	out := captureStdout(t, func() error { return cmdSubmit(jobFlags("11", "-wait")) })
	if rest := splitFirstLine(t, out, "job", "j000001", hash, false); rest != sum {
		t.Fatalf("submit -wait printed %q after the job line, want %q", rest, sum)
	}

	hash2, want2 := directPayload(t, spec(12))
	out = captureStdout(t, func() error { return cmdSubmit(jobFlags("12", "-wait", "-events")) })
	if rest := splitFirstLine(t, out, "job", "j000002", hash2, false); rest != summaryLine(t, want2) {
		t.Fatalf("submit -wait -events printed %q after the job line", rest)
	}

	// A resubmit is served from the cache at submit time.
	out = captureStdout(t, func() error { return cmdSubmit(jobFlags("11", "-wait")) })
	if exp := "job j000003 done cached=true spec=" + hash[:12] + "\n" + sum; out != exp {
		t.Fatalf("cached resubmit printed %q, want %q", out, exp)
	}

	out = captureStdout(t, func() error { return cmdStatus([]string{"-server", base, "-job", "j000001"}) })
	if exp := "job j000001 done cached=false spec=" + hash[:12] + "\n"; out != exp {
		t.Fatalf("status printed %q, want %q", out, exp)
	}

	if err := cmdStatus([]string{"-server", base, "-job", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of an unknown job: %v, want the server's message", err)
	}

	path := filepath.Join(dir, "result.json")
	out = captureStdout(t, func() error { return cmdGet([]string{"-server", base, "-job", "j000001", "-o", path}) })
	if exp := fmt.Sprintf("result j000001 -> %s (%d bytes)\n", path, len(want)); out != exp {
		t.Fatalf("get -o printed %q, want %q", out, exp)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("get -o wrote %d bytes (err %v), not the direct run's %d", len(got), err, len(want))
	}
	out = captureStdout(t, func() error { return cmdGet([]string{"-server", base, "-job", "j000002"}) })
	if exp := summaryLine(t, want2); out != exp {
		t.Fatalf("get printed %q, want %q", out, exp)
	}

	// The -dl-* flags reach the job spec: the job is the deadline-class run.
	dl := spec(14)
	dl.DLRuntimeNs, dl.DLPeriodNs = 400_000, 1_000_000
	hashDL, wantDL := directPayload(t, dl)
	out = captureStdout(t, func() error {
		return cmdSubmit(jobFlags("14", "-wait", "-dl-runtime-ns", "400000", "-dl-period-ns", "1000000"))
	})
	if rest := splitFirstLine(t, out, "job", "j000004", hashDL, false); rest != summaryLine(t, wantDL) {
		t.Fatalf("deadline submit printed %q after the job line", rest)
	}

	// Canceling a finished job is a no-op that reports its state.
	out = captureStdout(t, func() error { return cmdCancel([]string{"-server", base, "-job", "j000001"}) })
	if exp := "job j000001 done\n"; out != exp {
		t.Fatalf("cancel printed %q, want %q", out, exp)
	}
}

// TestClientCommandsFleet drives `submit -fleet -wait` against a
// coordinator over two daemons: the shard lines name each slice's
// placement, and the merged result is byte-equal to a direct run.
func TestClientCommandsFleet(t *testing.T) {
	coord, err := fleet.New(fleet.Config{Backends: []string{newDaemon(t), newDaemon(t)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	hash, want := directPayload(t, service.JobSpec{Platform: "tiny-test", Workload: "schedbench",
		Size: "small", Model: "omp", Strategy: "Rm", Seed: 13, Reps: 4})

	out := captureStdout(t, func() error {
		return cmdSubmit([]string{"-fleet", "-server", ts.URL, "-platform", "tiny-test", "-workload", "schedbench",
			"-size", "small", "-seed", "13", "-reps", "4", "-wait"})
	})
	st, err := (&service.Client{Name: ts.URL}).Status(context.Background(), "j000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SubJobs) != 2 {
		t.Fatalf("fleet job has %d sub-jobs, want 2", len(st.SubJobs))
	}
	var exp strings.Builder
	for _, s := range st.SubJobs {
		fmt.Fprintf(&exp, "  shard offset=%d reps=%d node=%s job=%s cached=false retries=0\n", s.Offset, s.Reps, s.Node, s.JobID)
	}
	exp.WriteString(summaryLine(t, want))
	if rest := splitFirstLine(t, out, "job", "j000001", hash, false); rest != exp.String() {
		t.Fatalf("submit -fleet -wait printed %q after the job line, want %q", rest, exp.String())
	}

	path := filepath.Join(t.TempDir(), "merged.json")
	captureStdout(t, func() error { return cmdGet([]string{"-server", ts.URL, "-job", "j000001", "-o", path}) })
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("merged result is %d bytes (err %v), not the direct run's %d", len(got), err, len(want))
	}
}

// TestAnalyzeRemoteMatchesLocal runs one analysis locally and through a
// daemon: the artifact, every evidence timeline and everything printed
// after the submit line must be the same bytes.
func TestAnalyzeRemoteMatchesLocal(t *testing.T) {
	base := newDaemon(t)
	dir := t.TempDir()
	flags := []string{"-platform", "tiny-test", "-workload", "nbody", "-size", "small",
		"-model", "omp", "-strategy", "Rm", "-seed", "5", "-reps", "3",
		"-sources", "daemon,irq,bandwidth", "-ladder", "1,4", "-timeline"}
	localDir, remoteDir := filepath.Join(dir, "local"), filepath.Join(dir, "remote")
	for _, d := range []string{localDir, remoteDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	local := captureStdout(t, func() error {
		return cmdAnalyze(append(flags, "-o", filepath.Join(localDir, "art.json")))
	})
	remote := captureStdout(t, func() error {
		return cmdAnalyze(append(flags, "-server", base, "-o", filepath.Join(remoteDir, "art.json")))
	})

	aspec := analyze.Spec{Platform: "tiny-test", Workload: "nbody", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 5, Reps: 3,
		Sources: []string{"daemon", "irq", "bandwidth"}, Ladder: []float64{1, 4}, Timeline: true}
	hash, err := service.SpecHash(&service.JobSpec{Analyze: &aspec})
	if err != nil {
		t.Fatal(err)
	}
	rest := splitFirstLine(t, remote, "analysis", "j000001", hash, false)
	if exp := strings.ReplaceAll(local, localDir, remoteDir); rest != exp {
		t.Fatalf("remote analyze printed\n%s\nwant\n%s", rest, exp)
	}

	files, err := os.ReadDir(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 { // the artifact and one timeline per source
		t.Fatalf("local analyze wrote %d files, want 4", len(files))
	}
	for _, f := range files {
		l, err := os.ReadFile(filepath.Join(localDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := os.ReadFile(filepath.Join(remoteDir, f.Name()))
		if err != nil {
			t.Fatalf("remote analyze did not write %s: %v", f.Name(), err)
		}
		if !bytes.Equal(l, r) {
			t.Fatalf("%s: remote copy (%d bytes) differs from the local run's (%d bytes)", f.Name(), len(r), len(l))
		}
	}
}
