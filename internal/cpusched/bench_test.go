package cpusched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Scheduler microbenchmarks: spawn/dispatch cost and the barrier-storm
// pattern that dominates fork-join workloads.
// `make bench` records these in BENCH_kernel.json.

func benchScheduler() (*sim.Engine, *Scheduler) {
	eng := sim.NewEngine()
	topo, err := machine.Preset(machine.TinyTest)
	if err != nil {
		panic(err)
	}
	return eng, New(eng, topo, Defaults())
}

// BenchmarkSpawnDispatchInline measures one full task lifecycle: spawn,
// compute segment, exit.
func BenchmarkSpawnDispatchInline(b *testing.B) {
	eng, s := benchScheduler()
	spec := TaskSpec{Name: "t", Kind: KindNoiseThread}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpawnSeq(spec, ReqCompute(1000))
		eng.Run()
	}
}

// stormProgram loops compute + spinning barrier forever — the OpenMP
// region pattern.
type stormProgram struct {
	bar  *Barrier
	step int
}

func (p *stormProgram) Next(*Task) (Request, bool) {
	p.step++
	if p.step%2 == 1 {
		return ReqCompute(50_000), true
	}
	return ReqBarrier(p.bar, true), true
}

// BenchmarkBarrierStorm measures repeated compute/active-wait-barrier
// rounds across a full team — the §4 straggler structure. Reported per
// barrier round.
func BenchmarkBarrierStorm(b *testing.B) {
	eng, s := benchScheduler()
	n := s.Topology().NumCPUs()
	bar := NewBarrier(n)
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tasks[i] = s.SpawnProgram(TaskSpec{Name: "w", Kind: KindWorkload,
			Affinity: machine.SetOf(i)}, &stormProgram{bar: bar})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := bar.Generation()
		eng.RunWhile(func() bool { return bar.Generation() == start })
	}
	b.StopTimer()
	for _, t := range tasks {
		s.Kill(t)
	}
}

// BenchmarkInjectIRQ measures interrupt delivery and completion, the
// highest-frequency event class in the noise profiles.
func BenchmarkInjectIRQ(b *testing.B) {
	eng, s := benchScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InjectIRQ(0, ClassIRQ, "local_timer:236", 1000)
		eng.Run()
	}
}
