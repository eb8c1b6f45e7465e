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

// toggleProgram alternates a short memory segment with a short compute
// segment forever, starting and stopping one memory stream per round.
type toggleProgram struct {
	rounds int
	step   int
}

func (p *toggleProgram) Next(*Task) (Request, bool) {
	p.step++
	if p.step%2 == 1 {
		p.rounds++
		return ReqMemory(10_000), true
	}
	return ReqCompute(10_000), true
}

// BenchmarkMemStreamChurn measures memory-stream churn on an A64FX-sized
// machine: 47 pinned tasks stream memory for the whole run while one task
// on CPU 0 starts and stops a stream. Each start or stop changes the
// bandwidth share, so it re-rates every streaming task; the stream group
// moves their completions with one engine re-key. Reported per round (one
// start and one stop), with the engine re-keys per round as rekeys/op.
func BenchmarkMemStreamChurn(b *testing.B) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.A64FXNoRsv)
	s := New(eng, topo, noBalance())
	n := topo.NumCPUs()
	tasks := make([]*Task, 0, n)
	for cpu := 1; cpu < n; cpu++ {
		tasks = append(tasks, s.SpawnSeq(TaskSpec{Name: "stream", Kind: KindWorkload,
			Affinity: machine.SetOf(cpu)}, ReqMemory(1e15)))
	}
	p := &toggleProgram{}
	tasks = append(tasks, s.SpawnProgram(TaskSpec{Name: "toggle", Kind: KindWorkload,
		Affinity: machine.SetOf(0)}, p))
	b.ReportAllocs()
	b.ResetTimer()
	rekeys := eng.Rekeys
	for i := 0; i < b.N; i++ {
		start := p.rounds
		eng.RunWhile(func() bool { return p.rounds == start })
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Rekeys-rekeys)/float64(b.N), "rekeys/op")
	for _, t := range tasks {
		s.Kill(t)
	}
}

// memStormProgram streams bytes of memory and then waits at a blocking
// barrier, round after round: each release starts every worker's stream
// at one instant.
type memStormProgram struct {
	bar    *Barrier
	bytes  float64
	rounds int
	step   int
}

func (p *memStormProgram) Next(*Task) (Request, bool) {
	p.step++
	if p.step%2 == 1 {
		return ReqMemory(p.bytes), true
	}
	p.rounds++
	return ReqBarrier(p.bar, false), true
}

// BenchmarkMemStreamStorm measures barrier releases of streaming workers on
// an A64FX-sized machine: 48 pinned workers stream memory, finish one
// after another, wait at one barrier, and restart their streams together
// when it releases. Every stream start or stop re-rates the streams
// running; the restarts at a release instant are deferred into one flush.
// Reported per barrier round, with member re-rates per round as
// rerates/op.
func BenchmarkMemStreamStorm(b *testing.B) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.A64FXNoRsv)
	s := New(eng, topo, noBalance())
	n := topo.NumCPUs()
	bar := NewBarrier(n)
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = s.SpawnProgram(TaskSpec{Name: "w", Kind: KindWorkload, Affinity: machine.SetOf(i)},
			&memStormProgram{bar: bar, bytes: float64(200_000 + 4_000*i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	rerates := s.MemRerates
	for i := 0; i < b.N; i++ {
		start := bar.Generation()
		eng.RunWhile(func() bool { return bar.Generation() == start })
	}
	b.StopTimer()
	b.ReportMetric(float64(s.MemRerates-rerates)/float64(b.N), "rerates/op")
	for _, t := range tasks {
		s.Kill(t)
	}
}
