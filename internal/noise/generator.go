package noise

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Generator drives a profile's noise sources against a scheduler until a
// horizon time. Each source draws from its own RNG stream, so adding or
// removing one source does not perturb the others.
type Generator struct {
	s       *cpusched.Scheduler
	p       Profile
	horizon sim.Time
	// Spawned counts noise tasks created, for diagnostics.
	Spawned int
	// IRQs counts interrupts injected.
	IRQs int
}

// Attach starts all noise sources of profile p on scheduler s, generating
// events from the current simulated time until horizon. The rng should be a
// dedicated stream (e.g. root.Stream("noise")).
func Attach(s *cpusched.Scheduler, p Profile, rng *sim.RNG, horizon sim.Time) *Generator {
	g := &Generator{s: s, p: p, horizon: horizon}
	topo := s.Topology()
	ncpu := topo.NumCPUs()

	if p.TimerHz > 0 {
		for cpu := 0; cpu < ncpu; cpu++ {
			g.timerLoop(cpu, rng.Stream(cpuName(&timerStreamNames, "timer/%d", cpu)))
		}
	}
	if p.KworkerRate > 0 {
		for cpu := 0; cpu < ncpu; cpu++ {
			if !g.threadAllowedOn(cpu) {
				continue
			}
			g.kworkerLoop(cpu, rng.Stream(cpuName(&kworkerStreamNames, "kworker/%d", cpu)))
		}
	}
	if p.UnboundRate > 0 {
		g.unboundLoop(rng.Stream("kworker-unbound"))
	}
	if p.DaemonRate > 0 && len(p.DaemonSources) > 0 {
		g.daemonLoop(rng.Stream("daemons"), p.DaemonSources, p.DaemonRate,
			p.DaemonDurMin, p.DaemonAlpha, p.DaemonDurCap, "daemon")
	}
	if p.GUI && p.GUIRate > 0 && len(p.GUISources) > 0 {
		g.daemonLoop(rng.Stream("gui"), p.GUISources, p.GUIRate,
			p.GUIDurMin, p.GUIAlpha, p.GUIDurCap, "gui")
	}
	if p.DiskRate > 0 && p.DiskIRQs > 0 && p.DiskCPU >= 0 && p.DiskCPU < ncpu {
		g.diskLoop(rng.Stream("disk"))
	}
	if p.MemHogRate > 0 && p.MemHogBytes > 0 {
		g.memhogLoop(rng.Stream("memhog"))
	}
	return g
}

// diskLoop fires block-device interrupt storms on the device's steered CPU
// followed by a writeback flush kworker.
func (g *Generator) diskLoop(rng *sim.RNG) {
	eng := g.s.Engine()
	cycles := g.s.Topology().CyclesPerNs()
	gapMu := sim.LogNormalMu(float64(30*sim.Microsecond), 0.8)
	irqDur := float64(g.p.DiskIRQDur)
	irqMu := sim.LogNormalMu(irqDur, 0.5)
	var next func()
	next = func() {
		if eng.Now() > g.horizon {
			return
		}
		n := 1 + rng.Intn(g.p.DiskIRQs)
		for k := 0; k < n; k++ {
			k := k
			gap := sim.Time(rng.LogNormal(gapMu, 0.8))
			eng.After(sim.Time(k)*gap, func() {
				var dur sim.Time
				if irqDur > 0 {
					dur = sim.Time(rng.LogNormal(irqMu, 0.5))
				}
				if dur < 500 {
					dur = 500
				}
				g.s.InjectIRQ(g.p.DiskCPU, cpusched.ClassIRQ, "nvme0q1:130", dur)
				g.IRQs++
			})
		}
		if g.p.DiskFlushDur > 0 {
			work := float64(rng.Jitter(g.p.DiskFlushDur, 0.3)) * cycles
			t := g.s.SpawnSeq(cpusched.TaskSpec{
				Name:     "flush",
				Source:   "kworker/u9:flush-259:0",
				Kind:     cpusched.KindNoiseThread,
				Affinity: g.threadAffinity(),
			}, cpusched.ReqCompute(work))
			g.Spawned++
			g.noteSpawn(t, "kworker/u9:flush-259:0")
		}
		eng.After(sim.Time(rng.ExpFloat64(g.p.DiskRate)*1e9), next)
	}
	eng.After(sim.Time(rng.ExpFloat64(g.p.DiskRate)*1e9), next)
}

// noteSpawn emits a noise-spawn instant when an observer is attached. The
// task's CPU is already placed by wake-up at this point, so the instant
// lands on the row where the burst will first run.
func (g *Generator) noteSpawn(t *cpusched.Task, source string) {
	if rec := g.s.Observer(); rec != nil {
		rec.Instant(t.CPU(), "noise-spawn", "noise", source, g.s.Now())
	}
}

func (g *Generator) threadAllowedOn(cpu int) bool {
	return g.p.ThreadMask.Empty() || g.p.ThreadMask.Has(cpu)
}

func (g *Generator) threadAffinity() machine.CPUSet {
	if g.p.ThreadMask.Empty() {
		return machine.AllCPUs(g.s.Topology().NumCPUs())
	}
	return g.p.ThreadMask
}

// timerLoop fires local_timer interrupts at TimerHz with jitter, each
// optionally followed by softirq work, mirroring how timer ticks raise
// softirqs on Linux.
func (g *Generator) timerLoop(cpu int, rng *sim.RNG) {
	period := sim.Time(1e9 / g.p.TimerHz)
	eng := g.s.Engine()
	// Sort the softirq sources once: map iteration order would make runs
	// nondeterministic, and re-sorting on every tick would allocate. The
	// sorted entries also carry each source's hoisted log-normal mu (see
	// sim.LogNormalMu) so ticks skip a math.Log per softirq draw.
	softirqs := softirqOrder(g.p.SoftIRQProb, g.p.SoftIRQDur)
	timerDur := float64(g.p.TimerDur)
	timerMu := sim.LogNormalMu(timerDur, g.p.TimerDurSigma)
	// Desynchronize CPUs: first tick at a random phase.
	first := eng.Now() + sim.Time(rng.Float64()*float64(period))
	var tick func()
	tick = func() {
		if eng.Now() > g.horizon {
			return
		}
		var dur sim.Time
		if timerDur > 0 {
			dur = sim.Time(rng.LogNormal(timerMu, g.p.TimerDurSigma))
		}
		if dur < 100 {
			dur = 100
		}
		g.s.InjectIRQ(cpu, cpusched.ClassIRQ, "local_timer:236", dur)
		g.IRQs++
		for _, sp := range softirqs {
			if rng.Bool(sp.prob) {
				var d sim.Time
				if sp.dur > 0 {
					d = sim.Time(rng.LogNormal(sp.mu, 0.8))
				}
				if d < 100 {
					d = 100
				}
				g.s.InjectIRQ(cpu, cpusched.ClassSoftIRQ, sp.src, d)
				g.IRQs++
			}
		}
		eng.After(rng.Jitter(period, 0.05), tick)
	}
	eng.At(first, tick)
}

type srcProb struct {
	src  string
	prob float64
	dur  float64 // softirq duration mean (ns); no draw when <= 0
	mu   float64 // hoisted sim.LogNormalMu(dur, 0.8)
}

// softirqOrder returns softirq sources in deterministic (sorted) order,
// with each source's duration mean and hoisted log-normal mu attached.
func softirqOrder(m map[string]float64, durs map[string]sim.Time) []srcProb {
	out := make([]srcProb, 0, len(m))
	for src, p := range m {
		dur := float64(durs[src])
		out = append(out, srcProb{src, p, dur, sim.LogNormalMu(dur, 0.8)})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].src < out[j-1].src; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Per-CPU stream and source names recur identically every rep (a fresh
// generator attaches per run); precomputing them keeps re-attachment from
// re-formatting — and re-allocating — the same strings, which showed up
// in allocation profiles of reps run in reused worlds.
var (
	timerStreamNames   = cpuNames("timer/%d")
	kworkerStreamNames = cpuNames("kworker/%d")
	kworkerSrcNames    = cpuNames("kworker/%d:1")
)

func cpuNames(format string) [64]string {
	var s [64]string
	for i := range s {
		s[i] = fmt.Sprintf(format, i)
	}
	return s
}

func cpuName(table *[64]string, format string, cpu int) string {
	if cpu >= 0 && cpu < len(table) {
		return table[cpu]
	}
	return fmt.Sprintf(format, cpu)
}

// kworkerLoop spawns bound kworker threads on one CPU at Poisson arrivals.
func (g *Generator) kworkerLoop(cpu int, rng *sim.RNG) {
	eng := g.s.Engine()
	cycles := g.s.Topology().CyclesPerNs()
	src := cpuName(&kworkerSrcNames, "kworker/%d:1", cpu)
	aff := machine.SetOf(cpu)
	kworkerDur := float64(g.p.KworkerDur)
	kworkerMu := sim.LogNormalMu(kworkerDur, g.p.KworkerDurSigma)
	var next func()
	next = func() {
		if eng.Now() > g.horizon {
			return
		}
		var dur sim.Time
		if kworkerDur > 0 {
			dur = sim.Time(rng.LogNormal(kworkerMu, g.p.KworkerDurSigma))
		}
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		work := float64(dur) * cycles
		t := g.s.SpawnSeq(cpusched.TaskSpec{
			Name:     "kworker",
			Source:   src,
			Kind:     cpusched.KindNoiseThread,
			Affinity: aff,
		}, cpusched.ReqCompute(work))
		g.Spawned++
		g.noteSpawn(t, src)
		gap := sim.Time(rng.ExpFloat64(g.p.KworkerRate) * 1e9)
		eng.After(gap, next)
	}
	eng.After(sim.Time(rng.ExpFloat64(g.p.KworkerRate)*1e9), next)
}

// unboundLoop spawns unbound kworkers that roam (or are confined to the
// reserved mask).
func (g *Generator) unboundLoop(rng *sim.RNG) {
	eng := g.s.Engine()
	cycles := g.s.Topology().CyclesPerNs()
	aff := g.threadAffinity()
	// The source label cycles through 8 pool-thread identities; format
	// them once instead of per spawn.
	var srcs [8]string
	for i := range srcs {
		srcs[i] = fmt.Sprintf("kworker/u%d:%d", g.s.Topology().NumCPUs()*4+1, i)
	}
	id := 0
	unboundDur := float64(g.p.UnboundDur)
	unboundMu := sim.LogNormalMu(unboundDur, g.p.UnboundDurSigma)
	var next func()
	next = func() {
		if eng.Now() > g.horizon {
			return
		}
		id++
		var dur sim.Time
		if unboundDur > 0 {
			dur = sim.Time(rng.LogNormal(unboundMu, g.p.UnboundDurSigma))
		}
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		work := float64(dur) * cycles
		t := g.s.SpawnSeq(cpusched.TaskSpec{
			Name:     "kworker-u",
			Source:   srcs[id%8],
			Kind:     cpusched.KindNoiseThread,
			Affinity: aff,
		}, cpusched.ReqCompute(work))
		g.Spawned++
		g.noteSpawn(t, srcs[id%8])
		eng.After(sim.Time(rng.ExpFloat64(g.p.UnboundRate)*1e9), next)
	}
	eng.After(sim.Time(rng.ExpFloat64(g.p.UnboundRate)*1e9), next)
}

// memhogLoop spawns synthetic memory-bandwidth hog tasks at Poisson
// arrivals: each streams MemHogBytes (jittered) through the memory system,
// contending with the workload for bandwidth without stealing meaningful
// compute. This source exists only for the bottleneck analysis — natural
// profiles leave MemHogRate 0, so attaching it last keeps every existing
// stream draw (and therefore every natural run) byte-identical.
func (g *Generator) memhogLoop(rng *sim.RNG) {
	eng := g.s.Engine()
	aff := g.threadAffinity()
	var srcs [4]string
	for i := range srcs {
		srcs[i] = fmt.Sprintf("memhog/%d", i)
	}
	id := 0
	var next func()
	next = func() {
		if eng.Now() > g.horizon {
			return
		}
		id++
		bytes := float64(rng.Jitter(sim.Time(g.p.MemHogBytes), 0.3))
		if bytes < 1 {
			bytes = 1
		}
		t := g.s.SpawnSeq(cpusched.TaskSpec{
			Name:     "memhog",
			Source:   srcs[id%len(srcs)],
			Kind:     cpusched.KindNoiseThread,
			Affinity: aff,
		}, cpusched.ReqMemory(bytes))
		g.Spawned++
		g.noteSpawn(t, srcs[id%len(srcs)])
		eng.After(sim.Time(rng.ExpFloat64(g.p.MemHogRate)*1e9), next)
	}
	eng.After(sim.Time(rng.ExpFloat64(g.p.MemHogRate)*1e9), next)
}

// daemonLoop spawns heavy-tailed background daemon bursts. A burst may be
// split across a few shorter on-CPU stints separated by sleeps, as real
// daemons behave.
func (g *Generator) daemonLoop(rng *sim.RNG, sources []string, rate float64,
	durMin sim.Time, alpha float64, durCap sim.Time, label string) {
	eng := g.s.Engine()
	cycles := g.s.Topology().CyclesPerNs()
	aff := g.threadAffinity()
	var next func()
	next = func() {
		if eng.Now() > g.horizon {
			return
		}
		src := sources[rng.Intn(len(sources))]
		total := sim.Time(rng.Pareto(float64(durMin), alpha))
		if total > durCap {
			total = durCap
		}
		// Large bursts run multi-threaded (indexing storms, compositor
		// plus clients): they spread across CPUs and can overwhelm a
		// single housekeeping core.
		workers := 1
		if g.p.BurstFanout > 1 && total > g.p.BurstFanoutThreshold {
			workers = 2 + rng.Intn(g.p.BurstFanout-1)
		}
		per := float64(total) / float64(workers)
		for w := 0; w < workers; w++ {
			stints := 1 + rng.Intn(3)
			stint := per / float64(stints)
			reqs := make([]cpusched.Request, 0, 2*stints-1)
			for i := 0; i < stints; i++ {
				reqs = append(reqs, cpusched.ReqCompute(stint*cycles))
				if i < stints-1 {
					reqs = append(reqs, cpusched.ReqSleep(sim.Time(stint/2)))
				}
			}
			t := g.s.SpawnSeq(cpusched.TaskSpec{
				Name:     label,
				Source:   src,
				Kind:     cpusched.KindNoiseThread,
				Affinity: aff,
			}, reqs...)
			g.Spawned++
			g.noteSpawn(t, src)
		}
		eng.After(sim.Time(rng.ExpFloat64(rate)*1e9), next)
	}
	eng.After(sim.Time(rng.ExpFloat64(rate)*1e9), next)
}
