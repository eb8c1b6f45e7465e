package cluster

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Shell is the seed-independent construction prefix of a cluster world: the
// cluster topology, the node platform, one shared engine, and one scheduler
// per node, all built once and forked back to their construction snapshots
// after every rep. Everything seed-dependent — per-node noise generators,
// the placement policy, the tenants — is built per rep by build, so a rep
// run in a warm shell is byte-identical to one in a fresh shell (scheduler
// construction touches no engine state, which is why pre-building the
// schedulers cannot shift an event sequence number).
//
// A shell is single-threaded like the engine it wraps: one rep at a time.
// Parallel cluster series use one shell per in-flight rep.
type Shell struct {
	spec    Spec // validated, defaults applied
	mc      *machine.Cluster
	p       *platform.Platform
	eng     *sim.Engine
	engSnap sim.Snapshot
	scheds  []*cpusched.Scheduler
	snaps   []cpusched.Snapshot
}

// NewShell builds the shared prefix for a cluster spec.
func NewShell(spec Spec) (*Shell, error) {
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
	sh := &Shell{spec: spec, mc: mc, p: p, eng: eng, engSnap: eng.Snapshot()}
	for _, n := range mc.Nodes {
		sched := cpusched.New(eng, n.Topo, p.SchedOpt)
		sh.scheds = append(sh.scheds, sched)
		sh.snaps = append(sh.snaps, sched.Snapshot())
	}
	return sh, nil
}

// build assembles one rep's world on the shell: per-node noise, the
// placement policy, and the tenants, all drawn from seed. rec, when
// non-nil, is a passive observability recorder: each node's scheduler
// records through a lane at the node's global CPU base, and the recorder is
// tagged with the node lanes so Chrome-trace export groups by node.
// Attaching it never changes simulation output.
func (sh *Shell) build(seed uint64, rec *obs.Recorder) *World {
	spec := sh.spec
	rng := sim.NewRNG(seed)
	w := &World{Eng: sh.eng, Cluster: sh.mc, rec: rec, spec: spec}
	var lanes []obs.NodeLane
	for i, n := range sh.mc.Nodes {
		sched := sh.scheds[i]
		base := sh.mc.CPUBase(i)
		if rec != nil {
			sched.SetObserver(rec.Lane(base))
			name := n.Name
			if spec.stragglerActive() && i == spec.Straggler {
				name = fmt.Sprintf("%s (straggler x%g)", n.Name, spec.StragglerScale)
			}
			lanes = append(lanes, obs.NodeLane{Name: name, CPUBase: base, NumCPUs: n.Topo.NumCPUs()})
		}
		prof := sh.p.Noise
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
		// NewShell validated the spec, so its policy name is known.
		panic(err)
	}
	w.gs = newGlobalSched(w, pol)

	width := spec.Width
	if width == 0 {
		width = sh.mc.Nodes[0].Topo.Cores
	}
	meanCycles := spec.WorkerMs * 1e6 * sh.mc.Nodes[0].Topo.CyclesPerNs()
	gapNs := spec.ArrivalMs * 1e6
	for t := 0; t < spec.Tenants; t++ {
		tn := newTenant(t, w, spec.JobsPerTenant, width, meanCycles, gapNs,
			rng.Stream(fmt.Sprintf("tenant%d", t)))
		w.tenants = append(w.tenants, tn)
	}
	return w
}

// Run executes one rep in the shell: build the rep's world, run it, then
// fork every scheduler and the shared engine back to their construction
// snapshots — on every exit path, so an erroring rep can never leak state
// into the next one. rec may be nil.
func (sh *Shell) Run(seed uint64, rec *obs.Recorder) (*Result, error) {
	res, err := sh.build(seed, rec).Run()
	for i, s := range sh.scheds {
		s.Fork(sh.snaps[i])
	}
	sh.eng.Fork(sh.engSnap)
	return res, err
}

// Run builds a shell for spec and runs one rep in it: the one-call form
// callers outside the package use. rec may be nil.
func Run(spec Spec, seed uint64, rec *obs.Recorder) (*Result, error) {
	sh, err := NewShell(spec)
	if err != nil {
		return nil, err
	}
	return sh.Run(seed, rec)
}
