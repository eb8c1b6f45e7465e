package fleet

import (
	"fmt"

	"repro/internal/obs"
)

// fanoutBounds bucket the sub-job fan-out width per fleet job.
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32}

// metrics holds the fleet runner's shard families. The job-level families
// (submitted, by state, in flight, latency) are the coordinator server's
// noiselabd_* families. The shard hit ratio is a GaugeFunc so the rendered
// value can never drift from the counters it derives from.
type metrics struct {
	reg *obs.Registry

	subJobs    *obs.Counter
	subRetries *obs.Counter
	// subCacheHits counts sub-jobs whose backend answered from its shard
	// cache without an engine execution; with subJobs it yields the fleet's
	// shard hit ratio.
	subCacheHits *obs.Counter
	fanout       *obs.Histogram

	backendUp map[string]*obs.Gauge
}

// newMetrics registers the shard families. mergedHits reads how many fleet
// jobs the coordinator answered from its merged results (zero sub-jobs
// dispatched).
func newMetrics(backends []string, mergedHits func() uint64) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:     reg,
		subJobs: reg.Counter("noisefleet_subjobs_total", "Sub-jobs dispatched to backends."),
		subRetries: reg.Counter("noisefleet_subjob_retries_total",
			"Sub-job attempts re-routed to another ring node after a backend failure."),
		subCacheHits: reg.Counter("noisefleet_subjob_cache_hits_total",
			"Sub-jobs served from a backend's shard cache without execution."),
		fanout: reg.Histogram("noisefleet_fanout_width",
			"Sub-job fan-out width per fleet job.", fanoutBounds),
		backendUp: make(map[string]*obs.Gauge, len(backends)),
	}
	reg.CounterFunc("noisefleet_merged_cache_hits_total",
		"Fleet jobs served from the coordinator's merged results (its cache, or an identical job in flight).",
		mergedHits)
	reg.GaugeFunc("noisefleet_shard_hit_ratio",
		"Fraction of dispatched sub-jobs served from shard caches.",
		func() float64 {
			total := m.subJobs.Value()
			if total == 0 {
				return 0
			}
			return float64(m.subCacheHits.Value()) / float64(total)
		})
	for _, b := range backends {
		g := reg.Gauge(fmt.Sprintf("noisefleet_backend_up{backend=%q}", b),
			"Backend liveness as observed by the coordinator (1 = last contact succeeded).")
		g.Set(1)
		m.backendUp[b] = g
	}
	return m
}

// setBackendUp records the coordinator's view of a backend's liveness.
func (m *metrics) setBackendUp(name string, up bool) {
	g, ok := m.backendUp[name]
	if !ok {
		return
	}
	if up {
		g.Set(1)
	} else {
		g.Set(0)
	}
}
