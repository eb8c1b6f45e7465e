package cluster

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
)

// noiseHorizon bounds per-node noise generation; effectively "forever"
// relative to any run.
const noiseHorizon = sim.Time(1) << 60

// NodeState is one node of a running world: the machine, its scheduler
// instance (sharing the world's engine), its noise generator, and the load
// counters placement policies consult.
type NodeState struct {
	// Node is the machine-layer node (topology + noise scale).
	Node *machine.Node
	// Sched is the node's CPU scheduler, instantiated against the shared
	// engine so cross-node events stay globally ordered.
	Sched *cpusched.Scheduler
	// Gen is the node's background-noise generator.
	Gen *noise.Generator
	// CPUBase is the node's offset in the cluster-global CPU numbering
	// (observability lanes).
	CPUBase int
	// Inflight counts placed-but-unfinished worker tasks; JobsPlaced
	// counts jobs. Both are maintained by the global scheduler on the
	// engine thread.
	Inflight   int
	JobsPlaced int
}

// World is one simulated cluster run: N nodes behind a global scheduler,
// fed by multi-tenant load generators, all driven by a single shared
// discrete-event clock.
type World struct {
	Eng     *sim.Engine
	Cluster *machine.Cluster
	Nodes   []*NodeState

	gs      *GlobalSched
	tenants []*Tenant
	rec     *obs.Recorder
	spec    Spec
}

// NewWorld builds a world from a validated spec. rec, when non-nil, is a
// passive observability recorder: each node's scheduler records through a
// lane at the node's global CPU base, and the recorder is tagged with the
// node lanes so Chrome-trace export groups by node. Attaching it never
// changes simulation output.
func NewWorld(spec Spec, seed uint64, rec *obs.Recorder) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	mc, err := spec.buildCluster()
	if err != nil {
		return nil, err
	}
	p, err := spec.nodePlatform()
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	w := &World{Eng: eng, Cluster: mc, rec: rec, spec: spec}

	var lanes []obs.NodeLane
	for i, n := range mc.Nodes {
		sched := cpusched.New(eng, n.Topo, p.SchedOpt)
		base := mc.CPUBase(i)
		if rec != nil {
			sched.SetObserver(rec.Lane(base))
			name := n.Name
			if spec.stragglerActive() && i == spec.Straggler {
				name = fmt.Sprintf("%s (straggler x%g)", n.Name, spec.StragglerScale)
			}
			lanes = append(lanes, obs.NodeLane{Name: name, CPUBase: base, NumCPUs: n.Topo.NumCPUs()})
		}
		prof := p.Noise
		if f := n.EffectiveNoise(); f != 1 {
			prof = prof.Scale(f)
		}
		gen := noise.Attach(sched, prof, rng.Stream(fmt.Sprintf("node%d/noise", i)), noiseHorizon)
		w.Nodes = append(w.Nodes, &NodeState{
			Node: n, Sched: sched, Gen: gen, CPUBase: base,
		})
	}
	if rec != nil {
		rec.SetNodeLanes(lanes)
	}

	pol, err := NewPolicy(spec.Policy, rng.Stream("gs/policy"))
	if err != nil {
		return nil, err
	}
	w.gs = newGlobalSched(w, pol)

	width := spec.Width
	if width == 0 {
		width = mc.Nodes[0].Topo.Cores
	}
	meanCycles := spec.WorkerMs * 1e6 * mc.Nodes[0].Topo.CyclesPerNs()
	gapNs := spec.ArrivalMs * 1e6
	for t := 0; t < spec.Tenants; t++ {
		tn := newTenant(t, w, spec.JobsPerTenant, width, meanCycles, gapNs,
			rng.Stream(fmt.Sprintf("tenant%d", t)))
		w.tenants = append(w.tenants, tn)
	}
	return w, nil
}

// stragglerActive reports whether the spec marks an actual straggler.
func (s Spec) stragglerActive() bool {
	return s.StragglerScale != 0 && s.StragglerScale != 1
}

// Result is the outcome of one cluster run: the deterministic ground truth
// (per-job makespans and placements, in job-arrival order) plus derived
// metrics.
type Result struct {
	// Policy is the placement policy that ran.
	Policy string `json:"policy"`
	// Jobs is the total job count.
	Jobs int `json:"jobs"`
	// MakespanNs is each job's fork-join makespan (arrival to last worker
	// finish), indexed by arrival order.
	MakespanNs []int64 `json:"makespan_ns"`
	// Placements is the node each job ran on, same order.
	Placements []int `json:"placements"`
	// NodeJobs counts jobs placed per node.
	NodeJobs []int `json:"node_jobs"`
	// BatchNs is the simulated instant the last job finished.
	BatchNs int64 `json:"batch_ns"`
	// StragglerShare is the fraction of jobs placed on the straggler node
	// (0 when the spec has none).
	StragglerShare float64 `json:"straggler_share,omitempty"`
	// StragglerRatio is mean makespan of straggler-placed jobs over mean
	// makespan of the rest (0 when either side is empty).
	StragglerRatio float64 `json:"straggler_ratio,omitempty"`
	// ThroughputJobsPerSec is Jobs / BatchNs in simulated seconds.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
}

// Run drives the world until every job has completed and returns the
// result. It must be called once.
func (w *World) Run() (*Result, error) {
	defer func() {
		for _, ns := range w.Nodes {
			ns.Sched.Shutdown()
		}
	}()
	for _, t := range w.tenants {
		t.start()
	}
	total := w.spec.Tenants * w.spec.JobsPerTenant
	w.Eng.RunWhile(func() bool { return w.gs.finished < total })
	if w.gs.finished < total {
		return nil, fmt.Errorf("cluster: %d of %d jobs unfinished (event queue drained)",
			total-w.gs.finished, total)
	}
	res := w.collect()
	if w.rec != nil {
		w.publishCounters()
	}
	return res, nil
}

// collect assembles the Result from the finished jobs.
func (w *World) collect() *Result {
	jobs := w.gs.jobs
	res := &Result{
		Policy:     w.spec.Policy,
		Jobs:       len(jobs),
		MakespanNs: make([]int64, len(jobs)),
		Placements: make([]int, len(jobs)),
		NodeJobs:   make([]int, len(w.Nodes)),
	}
	var stragglerSum, otherSum float64
	var stragglerN, otherN int
	straggler := -1
	if w.spec.stragglerActive() {
		straggler = w.spec.Straggler
	}
	for i, j := range jobs {
		mk := int64(j.Finish - j.Arrival)
		res.MakespanNs[i] = mk
		res.Placements[i] = j.Node
		res.NodeJobs[j.Node]++
		if int64(j.Finish) > res.BatchNs {
			res.BatchNs = int64(j.Finish)
		}
		if j.Node == straggler {
			stragglerSum += float64(mk)
			stragglerN++
		} else {
			otherSum += float64(mk)
			otherN++
		}
	}
	if straggler >= 0 && len(jobs) > 0 {
		res.StragglerShare = float64(stragglerN) / float64(len(jobs))
		if stragglerN > 0 && otherN > 0 {
			res.StragglerRatio = (stragglerSum / float64(stragglerN)) / (otherSum / float64(otherN))
		}
	}
	if res.BatchNs > 0 {
		res.ThroughputJobsPerSec = float64(res.Jobs) / (float64(res.BatchNs) / 1e9)
	}
	return res
}

// publishCounters exports the run's kernel counters to the recorder's
// registry, summed over nodes (counter adds commute, so totals stay
// deterministic under any rep-to-worker assignment).
func (w *World) publishCounters() {
	reg := w.rec.Registry()
	reg.Counter("repro_runs_total", "Completed simulation runs.").Inc()
	st := w.Eng.Stats()
	reg.Counter("repro_sim_steps_total", "Engine events processed.").Add(st.Steps)
	reg.Counter("repro_sim_rekeys_total", "Pending engine timers re-keyed in place.").Add(st.Rekeys)
	var switches, rerates, spawned uint64
	for _, ns := range w.Nodes {
		switches += ns.Sched.ContextSwitches
		rerates += ns.Sched.MemRerates
		spawned += uint64(ns.Gen.Spawned)
	}
	reg.Counter("repro_sched_mem_rerates_total",
		"Memory-stream completions re-rated (walk refreshes plus flush re-keys).").Add(rerates)
	reg.Counter("repro_sched_context_switches_total", "Task dispatches.").Add(switches)
	reg.Counter("repro_noise_tasks_spawned_total", "Noise tasks spawned.").Add(spawned)
	reg.Counter("repro_obs_events_total", "Observability events recorded.").Add(w.rec.Total())
	reg.Counter("repro_obs_events_dropped_total",
		"Timeline events dropped by the buffer cap.").Add(w.rec.Dropped())
}
