package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderTimelineAndRing(t *testing.T) {
	r := NewRecorder(Options{Timeline: true, Ring: 4})
	for i := 0; i < 10; i++ {
		r.Span(i%2, fmt.Sprintf("t%d", i), "workload", "", sim.Time(i*10), sim.Time(i*10+5))
	}
	r.Instant(0, "preempt", "sched", "victim", 200)
	if got := len(r.Events()); got != 11 {
		t.Fatalf("timeline len = %d, want 11", got)
	}
	if r.Total() != 11 {
		t.Fatalf("total = %d, want 11", r.Total())
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring len = %d, want 4", len(recent))
	}
	// Oldest-first tail: t7, t8, t9, preempt.
	want := []string{"t7", "t8", "t9", "preempt"}
	for i, ev := range recent {
		if ev.Name != want[i] {
			t.Fatalf("ring[%d] = %q, want %q", i, ev.Name, want[i])
		}
	}
	if recent[3].Phase != PhaseInstant || recent[3].Dur != 0 {
		t.Fatalf("instant event malformed: %+v", recent[3])
	}
}

func TestRecorderRingOnlyKeepsNoTimeline(t *testing.T) {
	r := NewRecorder(Options{Ring: 8})
	for i := 0; i < 100; i++ {
		r.Span(0, "t", "workload", "", sim.Time(i), sim.Time(i+1))
	}
	if len(r.Events()) != 0 {
		t.Fatalf("timeline kept %d events without Options.Timeline", len(r.Events()))
	}
	if len(r.Recent()) != 8 {
		t.Fatalf("ring len = %d, want 8", len(r.Recent()))
	}
	if err := r.WriteChromeJSON(new(bytes.Buffer)); err == nil {
		t.Fatal("WriteChromeJSON should fail without a timeline")
	}
}

func TestRecorderMaxEventsDrops(t *testing.T) {
	r := NewRecorder(Options{Timeline: true, MaxEvents: 5})
	for i := 0; i < 9; i++ {
		r.Instant(0, "e", "sched", "", sim.Time(i))
	}
	if len(r.Events()) != 5 {
		t.Fatalf("timeline len = %d, want 5", len(r.Events()))
	}
	if r.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", r.Dropped())
	}
	// The ring still has the most recent events.
	recent := r.Recent()
	if recent[len(recent)-1].Start != 8 {
		t.Fatalf("ring misses the newest event: %+v", recent[len(recent)-1])
	}
}

// TestRecorderOnEventWindow: OnEvent sees exactly the events the timeline
// window admits (the first MaxEvents, in emission order), whether or not
// Timeline stores them, and events emitted through a lane reach it with
// the lane's CPU offset.
func TestRecorderOnEventWindow(t *testing.T) {
	for _, keep := range []bool{false, true} {
		var seen []sim.Time
		r := NewRecorder(Options{Timeline: keep, MaxEvents: 5,
			OnEvent: func(ev Event) { seen = append(seen, ev.Start) }})
		for i := 0; i < 9; i++ {
			r.Instant(0, "e", "sched", "", sim.Time(i))
		}
		if want := []sim.Time{0, 1, 2, 3, 4}; fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("timeline=%v: OnEvent saw %v, want %v", keep, seen, want)
		}
		if r.Dropped() != 4 {
			t.Fatalf("timeline=%v: dropped = %d, want 4", keep, r.Dropped())
		}
		if wantKept := map[bool]int{false: 0, true: 5}[keep]; len(r.Events()) != wantKept {
			t.Fatalf("timeline=%v: stored %d events, want %d", keep, len(r.Events()), wantKept)
		}
	}

	var cpus []int
	r := NewRecorder(Options{OnEvent: func(ev Event) { cpus = append(cpus, ev.CPU) }})
	r.Lane(4).Span(1, "t", "workload", "", 0, 3)
	if fmt.Sprint(cpus) != "[5]" {
		t.Fatalf("lane event reached OnEvent on CPUs %v, want [5]", cpus)
	}
}

func TestWriteChromeJSON(t *testing.T) {
	r := NewRecorder(Options{Timeline: true})
	r.Span(1, "w0", "workload", "policy=fifo", 2000, 5000)
	r.Span(0, "noise", "noise", "", 1000, 1500)
	r.Instant(1, "migrate", "sched", "w0", 4000)
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata rows (cpu 0, cpu 1) + 3 events.
	if len(out) != 5 {
		t.Fatalf("got %d entries, want 5", len(out))
	}
	if out[0]["ph"] != "M" || out[1]["ph"] != "M" {
		t.Fatalf("missing thread_name metadata rows: %v", out[:2])
	}
	// Events sorted by start time: noise (1000) first.
	if out[2]["name"] != "noise" {
		t.Fatalf("events not time-sorted: %v", out[2])
	}
	if out[3]["name"] != "w0" || out[3]["dur"] != 3.0 {
		t.Fatalf("span event wrong: %v", out[3])
	}
	if out[4]["ph"] != "i" || out[4]["s"] != "t" {
		t.Fatalf("instant event wrong: %v", out[4])
	}
}

func TestFlightDump(t *testing.T) {
	r := NewRecorder(Options{Ring: 3})
	for i := 0; i < 7; i++ {
		r.Instant(0, fmt.Sprintf("e%d", i), "sched", "", sim.Time(i))
	}
	f := r.FlightDump("rep 2", errors.New("deadlock"))
	if f.Total != 7 || len(f.Events) != 3 || f.Err != "deadlock" {
		t.Fatalf("flight dump wrong: %+v", f)
	}
	var buf bytes.Buffer
	if err := WriteFlight(&buf, f); err != nil {
		t.Fatal(err)
	}
	var back Flight
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if back.Label != "rep 2" || len(back.Events) != 3 {
		t.Fatalf("round-trip wrong: %+v", back)
	}
}

func TestRegistryCountersGaugesRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(`jobs_total{state="done"}`, "Jobs by state.")
	c.Add(2)
	reg.Counter(`jobs_total{state="failed"}`, "").Inc()
	g := reg.Gauge("inflight", "In-flight jobs.")
	g.Add(3)
	g.AddFloor(-5, 0)
	if g.Value() != 0 {
		t.Fatalf("AddFloor: got %d, want 0", g.Value())
	}
	// Idempotent registration returns the same metric.
	if reg.Counter(`jobs_total{state="done"}`, "") != c {
		t.Fatal("re-registration returned a new counter")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs by state.",
		"# TYPE jobs_total counter",
		`jobs_total{state="done"} 2`,
		`jobs_total{state="failed"} 1`,
		"# TYPE inflight gauge",
		"inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renders are byte-identical.
	var buf2 bytes.Buffer
	reg.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("prometheus render not deterministic")
	}
}

// TestRegistryCounterFunc: a computed counter renders as an integer
// counter read at render time, in both formats.
func TestRegistryCounterFunc(t *testing.T) {
	reg := NewRegistry()
	var n uint64 = 4
	reg.CounterFunc("hits_total", "Hits kept elsewhere.", func() uint64 { return n })
	n = 5
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if want := "# TYPE hits_total counter\nhits_total 5\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
	}
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out registryJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || out.Counters["hits_total"] != 5 {
		t.Fatalf("JSON counters %v (err %v), want hits_total 5", out.Counters, err)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.05} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Counts[0] != 1 || s.Counts[1] != 2 || s.Counts[2] != 1 || s.Counts[3] != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", s)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 3`,
		`latency_seconds_bucket{le="1"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(7)
	reg.Gauge("b", "").Set(-2)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out registryJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if out.Counters["a_total"] != 7 || out.Gauges["b"] != -2 || out.Histograms["h"].Count != 1 {
		t.Fatalf("JSON round-trip wrong: %+v", out)
	}
}
