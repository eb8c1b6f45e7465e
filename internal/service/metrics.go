package service

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/rescache"
)

// latencyBounds are the histogram bucket boundaries (seconds) for the
// registry's job-latency histogram.
var latencyBounds = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120}

// metrics aggregates service-level counters on an obs.Registry — the same
// counter/gauge/histogram machinery the simulation kernel publishes through —
// instead of the ad-hoc struct it used to carry. The registry is the source
// of truth; Snapshot and /metrics read the live values. Cache-tier
// counters live in rescache and are merged into the rendered output.
type metrics struct {
	reg *obs.Registry

	submitted  *obs.Counter
	done       *obs.Counter
	failed     *obs.Counter
	canceled   *obs.Counter
	rejected   *obs.Counter
	executions *obs.Counter
	cacheHits  *obs.Counter
	inflight   *obs.Gauge
	latency    *obs.Histogram
}

// newMetrics registers the service families on reg (a fresh registry when
// nil).
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		reg:       reg,
		submitted: reg.Counter("noiselabd_jobs_submitted_total", "Jobs accepted for execution."),
		done:      reg.Counter(`noiselabd_jobs_total{state="done"}`, "Jobs by terminal state."),
		failed:    reg.Counter(`noiselabd_jobs_total{state="failed"}`, "Jobs by terminal state."),
		canceled:  reg.Counter(`noiselabd_jobs_total{state="canceled"}`, "Jobs by terminal state."),
		rejected:  reg.Counter("noiselabd_jobs_rejected_total", "Submissions rejected (queue full or draining)."),
		executions: reg.Counter("noiselabd_executions_total",
			"Engine executions (cache misses that ran)."),
		cacheHits: reg.Counter("noiselabd_cache_hits_total",
			"Jobs served without an engine execution."),
		inflight: reg.Gauge("noiselabd_jobs_inflight", "Jobs currently executing."),
		latency: reg.Histogram("noiselabd_job_latency_hist_seconds",
			"Job wall latency distribution.", latencyBounds),
	}
}

// Snapshot is a point-in-time copy of the service counters, exposed for
// tests and for the /metrics renderer.
type Snapshot struct {
	Submitted, Done, Failed, Canceled, Rejected uint64
	// Executions counts engine runs (cache compute callbacks); CacheHits
	// counts jobs served without one.
	Executions, CacheHits uint64
	InFlight              int
	QueueDepth            int
	// LatencyP50 and LatencyP99 are seconds, interpolated within the
	// job-latency histogram's buckets; 0 when no job finished yet.
	LatencyP50, LatencyP99 float64
	Cache                  rescache.Stats
}

func (m *metrics) jobStarted() {
	m.inflight.Add(1)
}

// jobFinished records a terminal state and the job's wall latency. The
// inflight gauge saturates at zero: a spurious double-finish (the bug class
// this clamp guards) must not drive it negative.
func (m *metrics) jobFinished(state JobState, cached bool, latencySecs float64) {
	m.inflight.AddFloor(-1, 0)
	switch state {
	case StateDone:
		m.done.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateCanceled:
		m.canceled.Inc()
	}
	if cached {
		m.cacheHits.Inc()
	}
	m.latency.Observe(latencySecs)
}

// histQuantile estimates the q-quantile of a histogram's samples by linear
// interpolation within the bucket holding rank q*count, taking the first
// bucket to start at 0. A rank in the +Inf bucket yields the highest finite
// bound. An empty histogram yields 0.
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var below uint64
	lower := 0.0
	for i, upper := range h.Bounds {
		n := h.Counts[i]
		if float64(below+n) >= rank && n > 0 {
			return lower + (upper-lower)*(rank-float64(below))/float64(n)
		}
		below += n
		lower = upper
	}
	return lower
}

// snapshot merges the service counters with the cache tier's.
func (m *metrics) snapshot(queueDepth int, cache rescache.Stats) Snapshot {
	s := Snapshot{
		Submitted: m.submitted.Value(), Done: m.done.Value(), Failed: m.failed.Value(),
		Canceled: m.canceled.Value(), Rejected: m.rejected.Value(),
		Executions: m.executions.Value(), CacheHits: m.cacheHits.Value(),
		InFlight: int(m.inflight.Value()), QueueDepth: queueDepth, Cache: cache,
	}
	lat := m.latency.Snapshot()
	s.LatencyP50, s.LatencyP99 = histQuantile(lat, 0.50), histQuantile(lat, 0.99)
	return s
}

// render writes, in Prometheus text exposition format, the values the
// service registry does not hold: the queue depth, the cache tier's
// counters and the latency quantiles. The registry's own families are
// rendered by its WritePrometheus.
func (s Snapshot) render(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	// family writes a one-sample family with its HELP and TYPE lines.
	family := func(name, typ, help string, value any) {
		p("# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
	}
	c := s.Cache
	family("noiselabd_queue_depth", "gauge", "Jobs waiting in the bounded queue.", s.QueueDepth)
	family("noiselabd_cache_hit_ratio", "gauge",
		"Result-cache lookups served from memory, disk or an in-flight computation, over all lookups.",
		fmt.Sprintf("%.6f", c.HitRatio()))
	family("noiselabd_cache_mem_hits_total", "counter", "Result-cache lookups served from the memory tier.", c.MemHits)
	family("noiselabd_cache_disk_hits_total", "counter", "Result-cache lookups served from the disk tier.", c.DiskHits)
	family("noiselabd_cache_flight_hits_total", "counter",
		"Result-cache lookups deduplicated onto another caller's in-flight computation.", c.FlightHits)
	family("noiselabd_cache_misses_total", "counter", "Result-cache lookups that found no valid entry.", c.Misses)
	family("noiselabd_cache_corrupt_total", "counter", "On-disk cache entries rejected by checksum verification.", c.Corrupt)
	family("noiselabd_cache_evictions_total", "counter", "Evictions from the cache's memory tier.", c.Evictions)
	family("noiselabd_cache_mem_entries", "gauge", "Entries in the cache's memory tier.", c.MemEntries)
	p("# HELP noiselabd_job_latency_seconds Job wall latency quantiles, interpolated within noiselabd_job_latency_hist_seconds buckets.\n")
	p("# TYPE noiselabd_job_latency_seconds summary\n")
	p("noiselabd_job_latency_seconds{quantile=\"0.5\"} %.9f\n", s.LatencyP50)
	p("noiselabd_job_latency_seconds{quantile=\"0.99\"} %.9f\n", s.LatencyP99)
}
