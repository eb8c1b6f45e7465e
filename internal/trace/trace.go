// Package trace implements an osnoise-style system tracer and trace model:
// per-CPU records of interrupt, soft-interrupt, and thread noise with start
// timestamps and durations (the paper's Figure 3), a text codec mirroring
// that figure, JSON field tags, and the per-source statistics the noise
// injector's configuration generator consumes (average frequency and
// duration per unique noise source, worst-case selection).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/cpusched"
	"repro/internal/sim"
)

// Event is one noise occurrence on one logical CPU.
type Event struct {
	// CPU is the logical CPU the event occurred on.
	CPU int `json:"cpu"`
	// Class is irq_noise, softirq_noise or thread_noise.
	Class cpusched.NoiseClass `json:"class"`
	// Source identifies the responsible entity, e.g. "local_timer:236" or
	// "kworker/13:1".
	Source string `json:"source"`
	// Start is the event start, relative to the beginning of the trace.
	Start sim.Time `json:"start"`
	// Duration is how long the event occupied the CPU.
	Duration sim.Time `json:"duration"`
}

// End returns the event's end time.
func (e Event) End() sim.Time { return e.Start + e.Duration }

// Trace is the recording of one workload execution.
type Trace struct {
	// Platform, Workload, Model and Strategy label the execution
	// configuration the trace was collected under.
	Platform string `json:"platform"`
	Workload string `json:"workload"`
	Model    string `json:"model"`
	Strategy string `json:"strategy"`
	// Seed reproduces the run.
	Seed uint64 `json:"seed"`
	// ExecTime is the workload's execution time in this run.
	ExecTime sim.Time `json:"exec_time"`
	// Events are the recorded noise occurrences, in completion order.
	Events []Event `json:"events"`
}

// TotalNoise returns the summed duration of all events.
func (tr *Trace) TotalNoise() sim.Time {
	var total sim.Time
	for _, e := range tr.Events {
		total += e.Duration
	}
	return total
}

// SortEvents orders events by start time (then CPU) in place, the order the
// text format uses.
func (tr *Trace) SortEvents() {
	sort.SliceStable(tr.Events, func(i, j int) bool {
		if tr.Events[i].Start != tr.Events[j].Start {
			return tr.Events[i].Start < tr.Events[j].Start
		}
		return tr.Events[i].CPU < tr.Events[j].CPU
	})
}

// SourceKey identifies a unique noise origin: the pair (class, source), as
// used by the paper's per-task averaging.
type SourceKey struct {
	Class  cpusched.NoiseClass
	Source string
}

func (k SourceKey) String() string { return fmt.Sprintf("%v/%s", k.Class, k.Source) }

// SourceStats aggregates one noise source across one or more traces.
type SourceStats struct {
	Key SourceKey
	// Count is total occurrences across the aggregated traces.
	Count int
	// TotalDur is the summed duration across the aggregated traces.
	TotalDur sim.Time
	// Traces is how many traces the aggregate covers.
	Traces int
}

// MeanDur returns the average duration of one occurrence.
func (s SourceStats) MeanDur() sim.Time {
	if s.Count == 0 {
		return 0
	}
	return s.TotalDur / sim.Time(s.Count)
}

// MeanCountPerTrace returns the average number of occurrences per trace.
func (s SourceStats) MeanCountPerTrace() float64 {
	if s.Traces == 0 {
		return 0
	}
	return float64(s.Count) / float64(s.Traces)
}

// Profile is the "average system noise" baseline of §4.2: per-source mean
// frequency and duration across a set of traces.
type Profile struct {
	// Sources maps each unique noise origin to its aggregate stats.
	Sources map[SourceKey]SourceStats
	// Traces is the number of traces aggregated.
	Traces int
	// MeanExec is the average workload execution time.
	MeanExec sim.Time
}

// BuildProfile aggregates per-source statistics over traces. It represents
// the inherent system noise baseline that the refinement step subtracts
// from the worst-case trace.
func BuildProfile(traces []*Trace) *Profile {
	var f Fold
	for _, tr := range traces {
		f.addProfile(tr)
	}
	return f.Profile()
}

// SortedSources returns the profile's sources in deterministic order
// (by class, then source name).
func (p *Profile) SortedSources() []SourceStats {
	out := make([]SourceStats, 0, len(p.Sources))
	for _, s := range p.Sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Class != out[j].Key.Class {
			return out[i].Key.Class < out[j].Key.Class
		}
		return out[i].Key.Source < out[j].Key.Source
	})
	return out
}

// WorstCase returns the trace with the longest execution time, its index,
// and an error when traces is empty. Ties break to the earliest trace, which
// keeps trace selection deterministic.
func WorstCase(traces []*Trace) (*Trace, int, error) {
	var f Fold
	for i, tr := range traces {
		f.addWorst(i, tr)
	}
	return f.Worst()
}

// Fold aggregates traces one at a time into the profile BuildProfile
// builds and the worst case WorstCase picks, so a caller that wants only
// those two need not keep the traces. Both fold exactly in any order: the
// profile is integer counts and sums per source, and the worst case is the
// largest ExecTime with ties to the lowest index. The zero value is an
// empty fold; a Fold is not safe for concurrent use.
type Fold struct {
	sources  map[SourceKey]SourceStats
	traces   int
	execSum  sim.Time
	worst    *Trace
	worstIdx int
}

// Add folds tr, the trace at index i of the set, into f. It reports
// whether f now holds tr as its worst case; a trace it does not hold may
// be discarded or overwritten once Add returns.
func (f *Fold) Add(i int, tr *Trace) (held bool) {
	f.addProfile(tr)
	return f.addWorst(i, tr)
}

// addProfile adds tr's execution time and events to the per-source sums.
func (f *Fold) addProfile(tr *Trace) {
	if f.sources == nil {
		f.sources = make(map[SourceKey]SourceStats)
	}
	f.traces++
	f.execSum += tr.ExecTime
	for _, e := range tr.Events {
		k := SourceKey{Class: e.Class, Source: e.Source}
		s := f.sources[k]
		s.Key = k
		s.Count++
		s.TotalDur += e.Duration
		f.sources[k] = s
	}
}

// addWorst keeps tr as the worst case when it ran longer than the one held,
// or as long at a lower index, and reports whether it did.
func (f *Fold) addWorst(i int, tr *Trace) bool {
	if f.worst == nil || tr.ExecTime > f.worst.ExecTime ||
		(tr.ExecTime == f.worst.ExecTime && i < f.worstIdx) {
		f.worst, f.worstIdx = tr, i
		return true
	}
	return false
}

// Profile returns the profile of the traces added so far. It is a copy:
// later adds do not change it.
func (f *Fold) Profile() *Profile {
	p := &Profile{Sources: make(map[SourceKey]SourceStats, len(f.sources)), Traces: f.traces}
	for k, s := range f.sources {
		s.Traces = f.traces
		p.Sources[k] = s
	}
	if f.traces > 0 {
		p.MeanExec = f.execSum / sim.Time(f.traces)
	}
	return p
}

// Worst returns the worst trace added so far and its index, and an error
// when none was added.
func (f *Fold) Worst() (*Trace, int, error) {
	if f.worst == nil {
		return nil, -1, fmt.Errorf("trace: WorstCase of empty trace set")
	}
	return f.worst, f.worstIdx, nil
}
