package core

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Replayer drives stage three (§4.3, Listing 1): one injector process per
// logical CPU in the configuration. The processes carry no CPU affinity —
// as in the paper, so the noise lands wherever the scheduler puts it, which
// is what lets housekeeping cores absorb it — and each one walks its event
// list: switch policy if needed, sleep until the event's start, occupy a
// CPU for the event's duration. Injection terminates early when the
// workload signals completion.
type Replayer struct {
	s     *cpusched.Scheduler
	cfg   *Config
	tasks []*cpusched.Task
	// PinInjectors pins each injector process to its configured CPU
	// instead of letting it roam. The paper leaves injectors unpinned;
	// this switch exists for the ablation benchmarks.
	PinInjectors bool
	// Injected counts events actually injected (not cut off by early
	// termination).
	Injected int
}

// NewReplayer validates the configuration and prepares a replayer.
func NewReplayer(s *cpusched.Scheduler, cfg *Config) (*Replayer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Replayer{s: s, cfg: cfg}, nil
}

// Start spawns the injector processes at the current simulated time, which
// must coincide with workload start (the barrier synchronization of
// Listing 1). Event starts in the config are relative to this instant.
func (r *Replayer) Start() {
	base := r.s.Now()
	for _, ce := range r.cfg.CPUs {
		events := ce.Events
		name := fmt.Sprintf("injector-%d", ce.CPU)
		spec := cpusched.TaskSpec{
			Name:   name,
			Source: name,
			Kind:   cpusched.KindInjector,
			// Default policy OTHER; each event switches as required.
			Policy: cpusched.PolicyOther,
			// No affinity by default: injector processes roam (§4.3).
		}
		if r.PinInjectors && ce.CPU < r.s.Topology().NumCPUs() {
			spec.Affinity = machine.SetOf(ce.CPU)
		}
		t := r.s.SpawnProgram(spec, &injectProgram{
			events: events,
			base:   base,
			cycles: r.s.Topology().CyclesPerNs(),
		})
		r.tasks = append(r.tasks, t)
		if rec := r.s.Observer(); rec != nil {
			rec.Instant(t.CPU(), "injector-start", "injector", name, base)
		}
	}
}

// injectProgram is Listing 1's per-process routine as a scheduler Program:
// per event, switch policy, sleep until the event's start, then occupy a
// CPU (or the memory system) for the event's duration.
type injectProgram struct {
	events []NoiseEvent
	base   sim.Time
	cycles float64
	i      int // current event
	step   int // 0 = set policy, 1 = sleep, 2 = inject
}

func (p *injectProgram) Next(*cpusched.Task) (cpusched.Request, bool) {
	if p.i >= len(p.events) {
		return cpusched.Request{}, false
	}
	ev := &p.events[p.i]
	switch p.step {
	case 0:
		p.step = 1
		if ev.Policy == "SCHED_FIFO" {
			return cpusched.ReqSetPolicy(cpusched.PolicyFIFO, ev.RTPrio, 0), true
		}
		return cpusched.ReqSetPolicy(cpusched.PolicyOther, 0, ev.Nice), true
	case 1:
		p.step = 2
		return cpusched.ReqSleepUntil(p.base + ev.Start), true
	default:
		p.i++
		p.step = 0
		if ev.MemBytes > 0 {
			// Memory-interference extension: contend for machine
			// bandwidth instead of pure CPU occupation.
			return cpusched.ReqMemory(ev.MemBytes), true
		}
		return cpusched.ReqCompute(float64(ev.Duration) * p.cycles), true
	}
}

// StopAll kills any injectors still running — the workload-completion early
// termination of Listing 1.
func (r *Replayer) StopAll() {
	rec := r.s.Observer()
	for _, t := range r.tasks {
		if !t.Done() {
			if rec != nil {
				rec.Instant(t.CPU(), "injector-stop", "injector", t.Name, r.s.Now())
			}
			r.s.Kill(t)
		}
	}
}

// Done reports whether every injector finished its list.
func (r *Replayer) Done() bool {
	for _, t := range r.tasks {
		if !t.Done() {
			return false
		}
	}
	return true
}
