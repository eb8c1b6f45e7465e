package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestWriteChromeJSON(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(events), len(tr.Events))
	}
	e := events[0]
	if e["ph"] != "X" || e["name"] != "local_timer:236" {
		t.Fatalf("first event: %+v", e)
	}
	// Timestamps are microseconds.
	if ts := e["ts"].(float64); ts != float64(tr.Events[0].Start)/1e3 {
		t.Fatalf("ts = %v", ts)
	}
}

func TestTimelineRecorderCapturesEverything(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.TraceOverhead = 0
	s := cpusched.New(eng, topo, opt)
	rec := NewTimelineRecorder(0)
	s.SetTracer(rec)
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: machine.SetOf(0)},
		cpusched.ReqCompute(30e6))
	s.SpawnSeq(cpusched.TaskSpec{
		Name: "kw", Kind: cpusched.KindNoiseThread,
		Policy: cpusched.PolicyFIFO, RTPrio: 1, Affinity: machine.SetOf(0),
	}, cpusched.ReqCompute(3e6))
	eng.At(2*sim.Millisecond, func() {
		s.InjectIRQ(0, cpusched.ClassIRQ, "timer", 100*sim.Microsecond)
	})
	eng.RunWhile(func() bool { return !w.Done() })
	s.Shutdown()

	if rec.Len() < 3 {
		t.Fatalf("timeline too sparse: %d intervals", rec.Len())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("timeline JSON invalid: %v", err)
	}
	// Unlike the osnoise tracer, the WORKLOAD intervals are present too.
	var sawWorkload, sawNoise, sawIRQ, sawMeta bool
	for _, e := range out {
		switch e["cat"] {
		case "workload":
			sawWorkload = true
		case "noise":
			sawNoise = true
		case "irq_noise":
			sawIRQ = true
		}
		if e["ph"] == "M" {
			sawMeta = true
		}
	}
	if !sawWorkload || !sawNoise || !sawIRQ || !sawMeta {
		t.Fatalf("timeline missing categories: workload=%v noise=%v irq=%v meta=%v",
			sawWorkload, sawNoise, sawIRQ, sawMeta)
	}
}
