package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the wall-clock spans a traced pass records at the layer
// boundaries the benchmark calls through, in memory, and writes them as
// Chrome trace-event JSON at the end. Every method is a no-op on a nil
// tracer, which is how untraced passes run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

// span is one timed interval. Spans of one request share req; parent is
// the enclosing span's id (0 for a root).
type span struct {
	id, parent int
	name, cat  string
	req, label string
	lane       int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span; a zero s.id gets a fresh one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// p50 is the median duration, in milliseconds, of the spans with the given
// name (and category, when cat is not empty); 0 when there are none.
func (t *tracer) p50(name, cat string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	for _, s := range t.spans {
		if s.name == name && (cat == "" || s.cat == cat) {
			ms = append(ms, float64(s.end.Sub(s.start))/1e6)
		}
	}
	sort.Float64s(ms)
	return quantile(ms, 0.5)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracePID keeps the benchmark's wall-clock rows apart from a simulated
// timeline (pid 0) loaded into the same Perfetto session.
const tracePID = 1

// writeFile writes the spans as Chrome trace-event JSON, one row per lane
// (a client, or the driver for batch workloads), timestamps in wall-clock
// microseconds since the tracer was created.
func (t *tracer) writeFile(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].start.Before(spans[b].start) })

	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "perfbench " + workload + " (wall clock)"}}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.lane] {
			lanes[s.lane] = true
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: s.lane,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", s.lane)}})
		}
	}
	for _, s := range spans {
		args := map[string]any{"span": s.id, "parent": s.parent}
		if s.req != "" {
			args["request_id"] = s.req
		}
		if s.label != "" {
			args["label"] = s.label
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: tracePID, TID: s.lane, Args: args,
		})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
