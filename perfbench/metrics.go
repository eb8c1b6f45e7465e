package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// metricDef names a per-layer metric. exact marks the counts (and ratios of
// counts) that must repeat exactly between two traced passes at one seed;
// times, host allocations and GC figures are not expected to.
type metricDef struct {
	name, unit string
	exact      bool
}

// layerMetrics is every per-layer metric a traced run prints, in report
// order. A layer a workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"sim.steps_per_rep", "count/rep", true},
	{"sim.host_ns_per_step", "ns", false},
	{"cpusched.switches_per_rep", "count/rep", true},
	{"cpusched.handoffs_per_rep", "count/rep", true},
	{"cpusched.inline_ratio", "ratio", true},
	{"cpusched.preemptions_per_rep", "count/rep", true},
	{"cpusched.migrations_per_rep", "count/rep", true},
	{"noise.tasks_per_rep", "count/rep", true},
	{"noise.irqs_per_rep", "count/rep", true},
	{"omprt.cell_ms_p50", "ms", false},
	{"syclrt.cell_ms_p50", "ms", false},
	{"experiment.config_cell_ms_p50", "ms", false},
	{"experiment.inject_cell_ms_p50", "ms", false},
	{"experiment.world_reuse_ratio", "ratio", true},
	{"experiment.cow_copies_per_rep", "count/rep", true},
	{"experiment.snapshots_per_rep", "count/rep", true},
	{"runtime.allocs_per_rep", "count/rep", false},
	{"runtime.bytes_per_rep", "B/rep", false},
	{"runtime.gc_cpu_fraction", "ratio", false},
	{"trace.profile_ms", "ms", false},
	{"core.refine_ms", "ms", false},
	{"core.generate_ms", "ms", false},
	{"obs.events_per_rep", "count/rep", true},
	{"obs.dropped_per_rep", "count/rep", true},
	{"analyze.cell_ms_p50", "ms", false},
	{"analyze.assemble_ms", "ms", false},
	{"rescache.hit_ratio", "ratio", true},
	{"rescache.mem_hits", "count/job", true},
	{"rescache.disk_hits", "count/job", true},
	{"rescache.flight_hits", "count/job", true},
	{"rescache.computes_per_job", "count/job", true},
	{"rescache.hit_ms_p50", "ms", false},
	{"service.submit_ms_p50", "ms", false},
	{"service.queue_wait_ms_p50", "ms", false},
	{"service.execute_ms_p50", "ms", false},
	{"service.fetch_ms_p50", "ms", false},
	{"service.rejected_ratio", "ratio", true},
	{"fleet.subjobs_per_job", "count/job", true},
	{"fleet.retries_per_job", "count/job", true},
	{"fleet.shard_hit_ratio", "ratio", true},
	{"fleet.merged_hit_ratio", "ratio", true},
	{"fleet.submit_ms_p50", "ms", false},
	{"fleet.wait_ms_p50", "ms", false},
	{"fleet.fetch_ms_p50", "ms", false},
	{"cluster.job_ms_p50", "ms", false},
	{"cluster.steps_per_run", "count/run", true},
	{"bench.trace_overhead_ratio", "ratio", false},
	{"bench.inexact_counts", "count", false},
}

// endToEndUnits are the untraced run's metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "miss_p50_ms": "ms", "miss_p90_ms": "ms",
	"cpu_ms_per_op": "ms", "mem_p90_mb": "MB",
}

// passStats are the host figures of one pass.
type passStats struct {
	wall, cpu       time.Duration
	memP90          float64 // bytes
	allocs, bytes   uint64
	gcCPU, totalCPU float64 // runtime/metrics CPU-second estimates
}

// opWall is the span from the first operation's start to the last one's
// end: the pass minus any traced-only work done after its operations.
func (p passStats) opWall(ops []*op) time.Duration {
	if len(ops) == 0 {
		return p.wall
	}
	first, last := ops[0].start, ops[0].end
	for _, o := range ops {
		if o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	return last.Sub(first)
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type hostSample struct {
	cpu  time.Duration
	vals [4]float64
}

func sampleHost() hostSample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var h hostSample
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			h.vals[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			h.vals[i] = s[i].Value.Float64()
		}
	}
	h.cpu = cpuTime()
	return h
}

// timedPass runs one pass after a GC, so garbage from set-up is not
// charged to it, and returns its host figures.
func timedPass(ctx context.Context, e env, stop stopRule, tr *tracer) (passStats, []*op, error) {
	runtime.GC()
	before := sampleHost()
	mem := watchMemory()
	start := time.Now()
	ops, err := e.pass(ctx, stop, tr)
	wall := time.Since(start)
	after := sampleHost()
	if err != nil {
		mem()
		return passStats{}, nil, err
	}
	return passStats{
		wall:     wall,
		memP90:   mem(),
		cpu:      after.cpu - before.cpu,
		allocs:   uint64(after.vals[0] - before.vals[0]),
		bytes:    uint64(after.vals[1] - before.vals[1]),
		gcCPU:    after.vals[2] - before.vals[2],
		totalCPU: after.vals[3] - before.vals[3],
	}, ops, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memPoll is how often watchMemory samples.
const memPoll = 5 * time.Millisecond

// watchMemory samples the memory the Go runtime holds from the operating
// system (everything it has mapped minus what it has released back), which
// is the process's resident memory short of the binary and thread stacks
// outside the heap, until the returned function is called. That returns
// the samples' 90th percentile in bytes: a peak that one badly timed GC
// cycle cannot move the way it moves the absolute maximum.
func watchMemory() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var held []float64
		tick := time.NewTicker(memPoll)
		defer tick.Stop()
		for {
			metrics.Read(s)
			held = append(held, float64(s[0].Value.Uint64()-s[1].Value.Uint64()))
			select {
			case <-stop:
				sort.Float64s(held)
				done <- quantile(held, 0.9)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// counters decodes the counter families of an obs registry.
func counters(reg *obs.Registry) (map[string]uint64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var out struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err := json.Unmarshal(buf.Bytes(), &out)
	return out.Counters, err
}

// kernelLayers fills the simulation-kernel and host-runtime figures from
// the kernel counters (repro_* families) of one pass.
func kernelLayers(m map[string]float64, ctr map[string]uint64, p passStats) {
	runs := float64(ctr["repro_runs_total"])
	if runs == 0 {
		return
	}
	per := func(name string) float64 { return float64(ctr[name]) / runs }
	steps := float64(ctr["repro_sim_steps_total"])
	m["sim.steps_per_rep"] = steps / runs
	if steps > 0 {
		m["sim.host_ns_per_step"] = float64(p.cpu) / steps
	}
	m["cpusched.switches_per_rep"] = per("repro_sched_context_switches_total")
	m["cpusched.handoffs_per_rep"] = per("repro_sched_goroutine_handoffs_total")
	inline, handoffs := ctr["repro_sched_inline_dispatches_total"], ctr["repro_sched_goroutine_handoffs_total"]
	if inline+handoffs > 0 {
		m["cpusched.inline_ratio"] = float64(inline) / float64(inline+handoffs)
	}
	m["cpusched.preemptions_per_rep"] = per("repro_sched_preemptions_total")
	m["cpusched.migrations_per_rep"] = per("repro_sched_migrations_total")
	m["noise.tasks_per_rep"] = per("repro_noise_tasks_spawned_total")
	m["noise.irqs_per_rep"] = per("repro_noise_irqs_total")
	m["experiment.world_reuse_ratio"] = per("repro_sim_batched_reps_total")
	m["experiment.cow_copies_per_rep"] = per("repro_sim_cow_copies_total")
	m["experiment.snapshots_per_rep"] = per("repro_sim_snapshots_total")
	m["obs.events_per_rep"] = per("repro_obs_events_total")
	m["obs.dropped_per_rep"] = per("repro_obs_events_dropped_total")
	m["runtime.allocs_per_rep"] = float64(p.allocs) / runs
	m["runtime.bytes_per_rep"] = float64(p.bytes) / runs
	if p.totalCPU > 0 {
		m["runtime.gc_cpu_fraction"] = p.gcCPU / p.totalCPU
	}
}
