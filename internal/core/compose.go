package core

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Config composition utilities: downstream users combine captured
// worst-case configs with synthetic memory/I-O noise, amplify a config to
// probe beyond the observed worst case, or shift it in time to study phase
// sensitivity.

// MergeConfigs overlays b onto a: per-CPU event lists are concatenated and
// re-sorted. Metadata (window, labels) comes from a; the window extends to
// cover b if needed. Neither input is modified.
func MergeConfigs(a, b *Config) (*Config, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: MergeConfigs needs two configs")
	}
	out := &Config{
		Platform:    a.Platform,
		Workload:    a.Workload,
		Model:       a.Model,
		Strategy:    a.Strategy,
		Seed:        a.Seed,
		Window:      a.Window,
		AnomalyExec: a.AnomalyExec,
		Improved:    a.Improved && b.Improved,
	}
	if b.Window > out.Window {
		out.Window = b.Window
	}
	byCPU := map[int][]NoiseEvent{}
	for _, src := range []*Config{a, b} {
		for _, ce := range src.CPUs {
			byCPU[ce.CPU] = append(byCPU[ce.CPU], ce.Events...)
		}
	}
	cpus := make([]int, 0, len(byCPU))
	for cpu := range byCPU {
		cpus = append(cpus, cpu)
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		evs := append([]NoiseEvent(nil), byCPU[cpu]...)
		sortEventsByStart(evs)
		out.CPUs = append(out.CPUs, CPUEvents{CPU: cpu, Events: evs})
	}
	return out, out.Validate()
}

// AmplifyConfig scales every event's duration (and memory volume) by
// factor, probing noise levels beyond the captured worst case. Event start
// times are preserved. Factor must be positive.
func AmplifyConfig(c *Config, factor float64) (*Config, error) {
	if c == nil {
		return nil, fmt.Errorf("core: AmplifyConfig needs a config")
	}
	if factor <= 0 {
		return nil, fmt.Errorf("core: amplification factor %v must be positive", factor)
	}
	out := cloneConfig(c)
	for i := range out.CPUs {
		for j := range out.CPUs[i].Events {
			e := &out.CPUs[i].Events[j]
			e.Duration = sim.Time(float64(e.Duration) * factor)
			e.MemBytes *= factor
			if e.Duration <= 0 && e.MemBytes <= 0 {
				e.Duration = 1
			}
		}
	}
	return out, out.Validate()
}

func cloneConfig(c *Config) *Config {
	out := *c
	out.CPUs = make([]CPUEvents, len(c.CPUs))
	for i, ce := range c.CPUs {
		out.CPUs[i] = CPUEvents{CPU: ce.CPU, Events: append([]NoiseEvent(nil), ce.Events...)}
	}
	return &out
}
