package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mitigate"
	"repro/internal/obs"
)

// TestRunOnceObsByteIdentical is the tentpole determinism guarantee: the obs
// recorder is a passive observer (unlike the tracer it steals no simulated
// time), so a run produces byte-identical results with observability on or
// off.
func TestRunOnceObsByteIdentical(t *testing.T) {
	p := tinyPlatform(t)
	for _, model := range Models {
		base := Spec{
			Platform: p, Workload: tinyWorkload(t, "nbody"),
			Model: model, Strategy: mitigate.Rm, Seed: 42, Tracing: true,
		}
		plain, err := RunOnce(base)
		if err != nil {
			t.Fatal(err)
		}
		observed := base
		observed.Obs = &obs.Options{Timeline: true}
		got, err := RunOnce(observed)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExecTime != plain.ExecTime {
			t.Fatalf("%s: ExecTime changed with obs on: %v vs %v", model, got.ExecTime, plain.ExecTime)
		}
		if got.ContextSwitches != plain.ContextSwitches {
			t.Fatalf("%s: ContextSwitches changed with obs on: %d vs %d",
				model, got.ContextSwitches, plain.ContextSwitches)
		}
		if !reflect.DeepEqual(got.Trace, plain.Trace) {
			t.Fatalf("%s: trace changed with obs on", model)
		}
		if got.Obs == nil || got.Obs.Total() == 0 {
			t.Fatalf("%s: observed run recorded no events", model)
		}
	}
}

// TestRunOnceObsTimelineContent checks that a recorded timeline actually
// holds the spans the paper's analysis needs: task-run spans for the
// workload, noise activity preempting it, and barrier-wait spans from the
// runtime's straggler accounting.
func TestRunOnceObsTimelineContent(t *testing.T) {
	p := tinyPlatform(t)
	// Inject FIFO noise on the workload's CPUs so the timeline is guaranteed
	// to show noise preempting the workload regardless of what the natural
	// profile produces at this seed; scale the natural noise up so the
	// generator's spawn instants appear too.
	inject := &core.Config{Window: 1 << 40, CPUs: []core.CPUEvents{
		{CPU: 1, Events: []core.NoiseEvent{
			{Start: 1000, Duration: 200000, Policy: "SCHED_FIFO", RTPrio: 50},
			{Start: 500000, Duration: 200000, Policy: "SCHED_FIFO", RTPrio: 50},
		}},
		{CPU: 2, Events: []core.NoiseEvent{
			{Start: 2000, Duration: 200000, Policy: "SCHED_FIFO", RTPrio: 50},
		}},
	}}
	res, err := RunOnce(Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 7,
		Inject: inject, NoiseScale: 50,
		Obs: &obs.Options{Timeline: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	names := map[string]int{}
	for _, ev := range res.Obs.Events() {
		cats[ev.Cat]++
		names[ev.Name]++
	}
	for _, want := range []string{"workload", "noise", "barrier", "omp"} {
		if cats[want] == 0 {
			t.Errorf("timeline has no %q events; categories: %v", want, cats)
		}
	}
	if names["preempt"] == 0 {
		t.Errorf("timeline shows no preemptions; names: %v", names)
	}
	if names["barrier-wait"] == 0 {
		t.Errorf("timeline shows no barrier-wait spans; names: %v", names)
	}

	// The Chrome export must be valid JSON with the same event count plus
	// per-CPU thread-name metadata rows.
	var buf bytes.Buffer
	if err := res.Obs.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(rows) <= len(res.Obs.Events()) {
		t.Fatalf("chrome export has %d rows for %d events (missing metadata?)",
			len(rows), len(res.Obs.Events()))
	}
}

// TestRunOnceObsRegistryCounters: a run must publish its kernel counters to
// the shared registry, and two runs must accumulate (adds commute).
func TestRunOnceObsRegistryCounters(t *testing.T) {
	p := tinyPlatform(t)
	reg := obs.NewRegistry()
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "minife"),
		Model: "sycl", Strategy: mitigate.RmHK, Seed: 3,
		Obs: &obs.Options{Reg: reg},
	}
	for i := 0; i < 2; i++ {
		if _, err := RunOnce(spec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "repro_runs_total 2") {
		t.Fatalf("registry missed a run:\n%s", out)
	}
	for _, name := range []string{
		"repro_sim_steps_total", "repro_sim_rekeys_total", "repro_sched_mem_rerates_total",
		"repro_sched_context_switches_total",
		"repro_noise_tasks_spawned_total", "repro_obs_events_total",
	} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("registry render missing %s", name)
		}
	}
}

// TestSeriesObsTimelineAndFlight exercises the executor fan-out: rep 0's
// timeline is delivered via OnTimeline after a successful series, and a
// failing series dumps the flight ring as JSON to FlightSink.
func TestSeriesObsTimelineAndFlight(t *testing.T) {
	p := tinyPlatform(t)
	var got *obs.Recorder
	e := Executor{Parallelism: 4, Obs: &ObsOptions{
		Timeline:   true,
		OnTimeline: func(r *obs.Recorder) { got = r },
	}}
	spec := Spec{
		Platform: p, Workload: tinyWorkload(t, "nbody"),
		Model: "omp", Strategy: mitigate.Rm, Seed: 5,
	}
	times, _, err := e.Series(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Events()) == 0 {
		t.Fatal("OnTimeline did not receive rep 0's recorder")
	}
	// Timeline recording must not perturb results: same series without obs.
	plainT, _, err := (Executor{Parallelism: 4}).Series(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(times, plainT) {
		t.Fatalf("series times changed with obs on:\nobs:   %v\nplain: %v", times, plainT)
	}

	// Failure path: every rep fails (an injection config with no window)
	// and rep 0's flight ring lands in the sink as a JSON document naming
	// the rep and the error.
	var sink bytes.Buffer
	ef := Executor{Parallelism: 2, Obs: &ObsOptions{FlightSink: &sink}}
	bad := spec
	bad.Inject = &core.Config{}
	if _, _, err := ef.Series(context.Background(), bad, 2); err == nil {
		t.Fatal("expected series failure")
	}
	var flight obs.Flight
	if err := json.Unmarshal(sink.Bytes(), &flight); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, sink.String())
	}
	if !strings.HasPrefix(flight.Label, "rep ") {
		t.Fatalf("flight label = %q", flight.Label)
	}
	if !strings.Contains(flight.Err, "config window") {
		t.Fatalf("flight err = %q", flight.Err)
	}
}

// TestRepObsAttachesOnlyWhereRead: a rep gets a recorder only when
// something reads it. Rep 0 is read by a timeline or OnEvent; every rep is
// read by a registry or a flight sink; with no reader no rep is observed.
func TestRepObsAttachesOnlyWhereRead(t *testing.T) {
	onEvent := func(obs.Event) {}
	cases := []struct {
		name string
		o    *ObsOptions
		rep0 bool // rep 0 observed
		rest bool // reps > 0 observed
	}{
		{"nil", nil, false, false},
		{"empty", &ObsOptions{Ring: 64}, false, false},
		{"timeline", &ObsOptions{Timeline: true}, true, false},
		{"on-event", &ObsOptions{OnEvent: onEvent}, true, false},
		{"reg", &ObsOptions{Reg: obs.NewRegistry()}, true, true},
		{"flight-sink", &ObsOptions{FlightSink: new(bytes.Buffer)}, true, true},
		{"on-flight", &ObsOptions{OnFlight: func(obs.Flight) {}}, true, true},
	}
	for _, c := range cases {
		e := Executor{Obs: c.o}
		for i := 0; i < 3; i++ {
			o := e.repObs(i)
			want := c.rest
			if i == 0 {
				want = c.rep0
			}
			if (o != nil) != want {
				t.Fatalf("%s: repObs(%d) = %+v, want observed=%v", c.name, i, o, want)
			}
			if o != nil && i > 0 && (o.Timeline || o.OnEvent != nil) {
				t.Fatalf("%s: rep %d keeps a timeline or feeds OnEvent", c.name, i)
			}
		}
	}

	// Through a real series: a registry counts every rep, and OnEvent sees
	// exactly rep 0's timeline.
	p := tinyPlatform(t)
	spec := Spec{Platform: p, Workload: tinyWorkload(t, "nbody"), Model: "omp", Strategy: mitigate.Rm, Seed: 5}
	reg := obs.NewRegistry()
	events := 0
	var tl *obs.Recorder
	e := Executor{Parallelism: 2, Obs: &ObsOptions{Reg: reg, Timeline: true,
		OnEvent: func(obs.Event) { events++ }, OnTimeline: func(r *obs.Recorder) { tl = r }}}
	if _, _, err := e.Series(context.Background(), spec, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("repro_runs_total", "").Value(); got != 3 {
		t.Fatalf("registry counted %d runs, want 3", got)
	}
	if tl == nil || events == 0 || events != len(tl.Events()) {
		t.Fatalf("OnEvent saw %d events, rep 0's timeline holds %d", events, len(tl.Events()))
	}
}

// TestFlightDumpFromRepAboveZero: with a flight sink attached, a rep above
// 0 that fails still carries a recorder, and its ring is the one dumped.
func TestFlightDumpFromRepAboveZero(t *testing.T) {
	var sink bytes.Buffer
	e := Executor{Parallelism: 1, Obs: &ObsOptions{FlightSink: &sink}}
	err := e.run(context.Background(), 3, func(i int) (*obs.Recorder, error) {
		o := e.repObs(i)
		if o == nil {
			return nil, nil
		}
		rec := obs.NewRecorder(*o)
		rec.Instant(0, "step", "sched", "", 0)
		if i == 1 {
			return rec, errors.New("boom")
		}
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "rep 1:") {
		t.Fatalf("series error %v, want rep 1's", err)
	}
	var flight obs.Flight
	if err := json.Unmarshal(sink.Bytes(), &flight); err != nil {
		t.Fatalf("no flight dump for rep 1: %v\n%s", err, sink.String())
	}
	if flight.Label != "rep 1" || flight.Err != "boom" || len(flight.Events) != 1 {
		t.Fatalf("flight dump = %+v, want rep 1's ring with one event", flight)
	}
}
