package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ClusterSeries executes reps cluster runs of spec with index-derived seeds
// and returns the results in rep order. Like Series, reps fan out over the
// worker pool and output is bit-identical for every parallelism level: each
// rep is a pure function of (spec, seedAt(seed, i)). Under the batch policy
// (see Executor.Batch) reps share warm cluster shells — the multi-node
// topology and per-node schedulers built once per in-flight rep instead of
// once per rep — with outputs unchanged.
func (e Executor) ClusterSeries(ctx context.Context, spec cluster.Spec, seed uint64, reps int) ([]*cluster.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Shells are spec-specific, so the pool is per series: a mutex-guarded
	// stack holding at most one shell per in-flight rep.
	var (
		batch  = e.batchReps(reps)
		shMu   sync.Mutex
		shells []*cluster.Shell
	)
	getShell := func() (*cluster.Shell, error) {
		shMu.Lock()
		var sh *cluster.Shell
		if n := len(shells); n > 0 {
			sh = shells[n-1]
			shells[n-1] = nil
			shells = shells[:n-1]
		}
		shMu.Unlock()
		if sh != nil {
			return sh, nil
		}
		return cluster.NewShell(spec)
	}
	putShell := func(sh *cluster.Shell) {
		shMu.Lock()
		shells = append(shells, sh)
		shMu.Unlock()
	}
	results := make([]*cluster.Result, reps)
	var rec0 *obs.Recorder
	err := e.run(ctx, reps, func(i int) (*obs.Recorder, error) {
		var rec *obs.Recorder
		if e.Obs != nil {
			rec = obs.NewRecorder(obs.Options{
				Timeline: e.Obs.Timeline && i == 0,
				Ring:     e.Obs.Ring,
				Reg:      e.Obs.Reg,
			})
		}
		var res *cluster.Result
		var err error
		if batch {
			var sh *cluster.Shell
			sh, err = getShell()
			if err == nil {
				res, err = sh.Run(seedAt(seed, i), rec)
				putShell(sh)
			}
		} else {
			res, err = cluster.Run(spec, seedAt(seed, i), rec)
		}
		if err != nil {
			return rec, err
		}
		if i == 0 {
			rec0 = rec
		}
		results[i] = res
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	e.deliverTimeline(rec0)
	return results, nil
}

// ClusterStudy compares placement policies on one cluster scenario: the
// headline straggler-sensitivity experiment. Every policy runs Reps times
// from the same base seed, so the only cross-policy difference is placement.
type ClusterStudy struct {
	// Spec is the scenario; its Policy field is overridden per cell.
	Spec cluster.Spec
	// Policies lists the placement policies to compare (nil = all).
	Policies []string
	// Reps is the repetition count per policy (0 = 5).
	Reps int
	// Seed is the base seed; rep i of every policy uses seedAt(Seed, i).
	Seed uint64
	// Exec is the execution layer.
	Exec Executor
}

// ClusterCell is one policy's aggregated outcome.
type ClusterCell struct {
	// Policy is the placement policy name.
	Policy string `json:"policy"`
	// Makespan summarizes per-job makespans in milliseconds, pooled across
	// reps (queueing included; this is what a tenant experiences).
	Makespan stats.Summary `json:"makespan"`
	// Batch summarizes per-rep batch completion times in milliseconds.
	Batch stats.Summary `json:"batch"`
	// StragglerShare is the mean fraction of jobs placed on the straggler.
	StragglerShare float64 `json:"straggler_share"`
	// StragglerRatio is the mean of per-rep straggler slowdown ratios
	// (straggler-placed mean makespan over the rest), over reps where both
	// sides are non-empty; 0 when no rep placed jobs on both sides.
	StragglerRatio float64 `json:"straggler_ratio"`
	// ThroughputJobsPerSec is the mean per-rep throughput.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// Reps holds the per-rep raw results, in rep order.
	Reps []*cluster.Result `json:"reps,omitempty"`
}

// ClusterStudyResult is the study outcome: one cell per policy, in the order
// requested.
type ClusterStudyResult struct {
	Spec  cluster.Spec  `json:"spec"`
	Seed  uint64        `json:"seed"`
	Cells []ClusterCell `json:"cells"`
}

// Run executes the study. Cells run sequentially (each fans its reps over
// the executor pool), so cell progress is monotone.
func (s ClusterStudy) Run(ctx context.Context) (*ClusterStudyResult, error) {
	policies := s.Policies
	if len(policies) == 0 {
		policies = cluster.PolicyNames()
	}
	reps := s.Reps
	if reps == 0 {
		reps = 5
	}
	out := &ClusterStudyResult{Spec: s.Spec, Seed: s.Seed}
	tracker := s.Exec.cells(len(policies))
	for _, pol := range policies {
		spec := s.Spec
		spec.Policy = pol
		results, err := s.Exec.ClusterSeries(ctx, spec, s.Seed, reps)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol, err)
		}
		out.Cells = append(out.Cells, summarizeCell(pol, results))
		tracker.finish(pol)
	}
	return out, nil
}

// summarizeCell aggregates one policy's reps.
func summarizeCell(policy string, results []*cluster.Result) ClusterCell {
	var makespans, batches []float64
	var shareSum, ratioSum, tputSum float64
	ratioN := 0
	for _, r := range results {
		for _, m := range r.MakespanNs {
			makespans = append(makespans, float64(m)/1e6)
		}
		batches = append(batches, float64(r.BatchNs)/1e6)
		shareSum += r.StragglerShare
		tputSum += r.ThroughputJobsPerSec
		if r.StragglerRatio > 0 {
			ratioSum += r.StragglerRatio
			ratioN++
		}
	}
	cell := ClusterCell{
		Policy:   policy,
		Makespan: stats.Summarize(makespans),
		Batch:    stats.Summarize(batches),
		Reps:     results,
	}
	if n := len(results); n > 0 {
		cell.StragglerShare = shareSum / float64(n)
		cell.ThroughputJobsPerSec = tputSum / float64(n)
	}
	if ratioN > 0 {
		cell.StragglerRatio = ratioSum / float64(ratioN)
	}
	return cell
}
