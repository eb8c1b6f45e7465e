package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mitigate"
	"repro/internal/obs"
)

func TestSeedAtMatchesHistoricalStride(t *testing.T) {
	if seedAt(7, 0) != 7 {
		t.Fatalf("seedAt(7,0) = %d", seedAt(7, 0))
	}
	if got, want := seedAt(7, 3), uint64(7+3*1000003); got != want {
		t.Fatalf("seedAt(7,3) = %d, want %d", got, want)
	}
}

// resetParallelEnv clears the cached REPRO_PARALLEL resolution so a test
// can exercise a fresh read (the production path resolves it once per
// process).
func resetParallelEnv() {
	parallelEnvOnce = sync.Once{}
	parallelEnvVal = 0
}

func TestExecutorWorkersResolution(t *testing.T) {
	defer resetParallelEnv()
	if w := (Executor{Parallelism: 3}).Workers(); w != 3 {
		t.Fatalf("explicit parallelism: %d", w)
	}
	if w := (Executor{Parallelism: -1}).Workers(); w != 1 {
		t.Fatalf("negative parallelism should mean sequential: %d", w)
	}
	t.Setenv("REPRO_PARALLEL", "5")
	resetParallelEnv()
	if w := (Executor{}).Workers(); w != 5 {
		t.Fatalf("REPRO_PARALLEL: %d", w)
	}
	t.Setenv("REPRO_PARALLEL", "bogus")
	resetParallelEnv()
	if w := (Executor{}).Workers(); w < 1 {
		t.Fatalf("fallback workers: %d", w)
	}
}

// TestParseParallelEnvTable pins the validation of REPRO_PARALLEL values:
// empty means unset (no warning); zero, negatives, and garbage are invalid
// (warned, fall back); positive integers are used.
func TestParseParallelEnvTable(t *testing.T) {
	cases := []struct {
		in       string
		want     int
		wantWarn bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"-3", 0, true},
		{"abc", 0, true},
		{"5", 5, false},
		{"2.5", 0, true},
	}
	for _, c := range cases {
		n, warning := parseParallelEnv(c.in)
		if n != c.want {
			t.Errorf("parseParallelEnv(%q) = %d, want %d", c.in, n, c.want)
		}
		if (warning != "") != c.wantWarn {
			t.Errorf("parseParallelEnv(%q) warning = %q, wantWarn %v", c.in, warning, c.wantWarn)
		}
		if warning != "" && !strings.Contains(warning, c.in) {
			t.Errorf("warning %q does not name the offending value %q", warning, c.in)
		}
	}
}

// TestWorkersInvalidEnvWarnsOnce: an invalid REPRO_PARALLEL must surface
// exactly one stderr diagnostic, and the env var must be read once, not on
// every Workers call.
func TestWorkersInvalidEnvWarnsOnce(t *testing.T) {
	t.Setenv("REPRO_PARALLEL", "abc")
	resetParallelEnv()
	var buf bytes.Buffer
	oldOut := warnOut
	warnOut = &buf
	defer func() { warnOut = oldOut; resetParallelEnv() }()

	want := runtime.GOMAXPROCS(0)
	for i := 0; i < 3; i++ {
		if w := (Executor{}).Workers(); w != want {
			t.Fatalf("Workers() = %d, want GOMAXPROCS %d", w, want)
		}
	}
	if n := strings.Count(buf.String(), "REPRO_PARALLEL"); n != 1 {
		t.Fatalf("warning emitted %d times, want once:\n%s", n, buf.String())
	}
	// The resolution is cached: changing the env without a reset must not
	// change the outcome (no per-call env read).
	t.Setenv("REPRO_PARALLEL", "7")
	if w := (Executor{}).Workers(); w != want {
		t.Fatalf("Workers() re-read the env: got %d", w)
	}
}

// TestRunBlockedOnRepDoesNotStallWorkers is the regression test for the
// OnRep-under-mutex bug: a callback that blocks must not prevent the other
// workers from completing their reps (pre-fix, the callback held the pool
// mutex, so every worker stalled at the next lock acquisition).
func TestRunBlockedOnRepDoesNotStallWorkers(t *testing.T) {
	const reps = 8
	release := make(chan struct{})
	blocked := make(chan struct{})
	perRep := make(chan struct{}, reps)
	var calls []int
	var mu sync.Mutex
	e := Executor{Parallelism: 4, OnRep: func(done, total int) {
		mu.Lock()
		calls = append(calls, done)
		mu.Unlock()
		if done == 1 {
			close(blocked)
			<-release
		}
	}}
	errCh := make(chan error, 1)
	go func() {
		errCh <- e.run(context.Background(), reps, func(i int) (*obs.Recorder, error) {
			perRep <- struct{}{}
			return nil, nil
		})
	}()
	<-blocked
	// With the first callback still blocked, every rep must still finish.
	for i := 0; i < reps; i++ {
		select {
		case <-perRep:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("only %d of %d reps ran while OnRep was blocked", i, reps)
		}
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != reps {
		t.Fatalf("OnRep called %d times, want %d: %v", len(calls), reps, calls)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("OnRep sequence %v not monotonic", calls)
		}
	}
}

// TestSeriesParallelDeterminism is the tentpole guarantee: for a fixed
// seed, a traced series must produce byte-identical execution times and
// identical traces at parallelism 1 and 8.
func TestSeriesParallelDeterminism(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 99, Tracing: true,
	}
	const reps = 8
	seqT, seqTr, err := (Executor{Parallelism: 1}).Series(context.Background(), spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	parT, parTr, err := (Executor{Parallelism: 8}).Series(context.Background(), spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqT, parT) {
		t.Fatalf("execution times differ:\nseq: %v\npar: %v", seqT, parT)
	}
	if len(seqTr) != reps || len(parTr) != reps {
		t.Fatalf("trace counts: seq %d par %d", len(seqTr), len(parTr))
	}
	for i := range seqTr {
		if !reflect.DeepEqual(seqTr[i], parTr[i]) {
			t.Fatalf("trace %d differs between parallelism 1 and 8", i)
		}
	}
}

// TestSeriesMatchesLegacySequential pins the parallel layer to the exact
// seed derivation the sequential loop used: per-rep RunOnce at
// spec.Seed + i*1000003.
func TestSeriesMatchesLegacySequential(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "minife"),
		Model: "sycl", Strategy: mitigate.RmHK, Seed: 11,
	}
	const reps = 4
	times, _, err := (Executor{Parallelism: 4}).Series(context.Background(), spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reps; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)*1000003
		res, err := RunOnce(s)
		if err != nil {
			t.Fatal(err)
		}
		if times[i] != res.ExecTime {
			t.Fatalf("rep %d: series %v, RunOnce %v", i, times[i], res.ExecTime)
		}
	}
}

// TestSeriesLowestIndexErrorWins: when several reps fail concurrently, the
// error of the lowest rep index must be reported.
func TestSeriesLowestIndexErrorWins(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model:    "tbb", // unknown model: every rep fails
		Strategy: mitigate.Rm, Seed: 1,
	}
	_, _, err := (Executor{Parallelism: 8}).Series(context.Background(), spec, 8)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "rep 0:") {
		t.Fatalf("lowest-index error should win, got: %v", err)
	}
}

// TestRunClaimedLowerRepStillRuns: a worker that claimed rep 0 must run
// it even when rep 1 fails before the worker gets there, because rep 0's
// error would win. The claimed hook holds rep 0's worker between its claim
// and its decision until rep 1's worker has recorded the failure and moved
// on to claim rep 2, which it must skip.
func TestRunClaimedLowerRepStillRuns(t *testing.T) {
	rep1Failed := make(chan struct{})
	e := Executor{Parallelism: 2, claimed: func(i int) {
		switch i {
		case 0:
			<-rep1Failed
		case 2:
			close(rep1Failed)
		}
	}}
	ran := make([]bool, 3)
	done := make(chan error, 1)
	go func() {
		done <- e.run(context.Background(), 3, func(i int) (*obs.Recorder, error) {
			ran[i] = true
			return nil, fmt.Errorf("boom %d", i)
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return")
	}
	if err == nil || !strings.Contains(err.Error(), "rep 0:") {
		t.Fatalf("series error %v, want rep 0's", err)
	}
	if !ran[0] || !ran[1] || ran[2] {
		t.Fatalf("ran = %v, want reps 0 and 1 only", ran)
	}
}

// TestSeriesCancellation: cancelling mid-series must stop promptly (not run
// the full series) and surface the context error.
func TestSeriesCancellation(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 3,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	completed := 0
	e := Executor{Parallelism: 2, OnRep: func(done, total int) {
		mu.Lock()
		completed = done
		mu.Unlock()
		cancel() // cancel as soon as the first rep lands
	}}
	const reps = 500
	start := time.Now()
	_, _, err := e.Series(ctx, spec, reps)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled series should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
	mu.Lock()
	c := completed
	mu.Unlock()
	if c >= reps/2 {
		t.Fatalf("cancellation not prompt: %d of %d reps completed", c, reps)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSeriesRepProgress: OnRep must count every rep exactly once up to the
// total.
func TestSeriesRepProgress(t *testing.T) {
	p := tinyPlatform(t)
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 4,
	}
	var mu sync.Mutex
	var seen []int
	e := Executor{Parallelism: 4, OnRep: func(done, total int) {
		if total != 6 {
			t.Errorf("total = %d", total)
		}
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}}
	if _, _, err := e.Series(context.Background(), spec, 6); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("OnRep called %d times", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("OnRep sequence %v not monotonic", seen)
		}
	}
}

// TestStudyCellProgress: a study must report cell progress with a correct
// total through Executor.OnCell.
func TestStudyCellProgress(t *testing.T) {
	p := tinyPlatform(t)
	var mu sync.Mutex
	var labels []string
	lastTotal := 0
	st := BaselineStudy{
		Platform: p, Workload: "nbody", Reps: 2, Seed: 5,
		Exec: Executor{Parallelism: 2, OnCell: func(done, total int, label string) {
			mu.Lock()
			labels = append(labels, label)
			lastTotal = total
			mu.Unlock()
		}},
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	want := len(Models) * len(mitigate.Columns())
	if lastTotal != want {
		t.Fatalf("cell total = %d, want %d", lastTotal, want)
	}
	if len(labels) != want {
		t.Fatalf("cells reported = %d, want %d", len(labels), want)
	}
}

// TestRunSeriesZeroReps preserves the historical empty-series behaviour.
func TestRunSeriesZeroReps(t *testing.T) {
	p := tinyPlatform(t)
	times, traces, err := RunSeries(Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 0 || traces != nil {
		t.Fatalf("zero reps: %v %v", times, traces)
	}
}
