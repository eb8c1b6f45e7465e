package noise

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runNoisy(t *testing.T, p Profile, seed uint64, horizon sim.Time) (*trace.Trace, *Generator) {
	t.Helper()
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	s := cpusched.New(eng, topo, opt)
	tracer := trace.NewTracer(0)
	s.SetTracer(tracer)
	rng := sim.NewRNG(seed)
	g := Attach(s, p, rng.Stream("noise"), horizon)
	// A workload that just spins so noise has something to preempt.
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: machine.SetOf(0)},
		cpusched.ReqCompute(float64(horizon-10*sim.Millisecond)*s.Topology().CyclesPerNs()))
	eng.RunWhile(func() bool { return !w.Done() })
	tr := tracer.Finish(eng.Now(), "tiny", "spin", "omp", "Rm", seed)
	s.Shutdown()
	return tr, g
}

func TestDesktopProfileProducesAllClasses(t *testing.T) {
	tr, g := runNoisy(t, Desktop(), 1, 200*sim.Millisecond)
	var irq, soft, thr int
	for _, e := range tr.Events {
		switch e.Class {
		case cpusched.ClassIRQ:
			irq++
		case cpusched.ClassSoftIRQ:
			soft++
		case cpusched.ClassThread:
			thr++
		}
	}
	if irq == 0 || soft == 0 {
		t.Fatalf("missing interrupt noise: irq=%d soft=%d", irq, soft)
	}
	if thr == 0 {
		t.Fatalf("missing thread noise (spawned=%d)", g.Spawned)
	}
	// 250 Hz on 4 CPUs over 200ms ~= 200 timer irqs.
	if irq < 100 || irq > 400 {
		t.Fatalf("timer irq count %d implausible for 250Hz x 4cpu x 200ms", irq)
	}
}

func TestTimerIRQRateMatchesHz(t *testing.T) {
	p := Desktop()
	p.KworkerRate, p.UnboundRate, p.DaemonRate, p.GUIRate = 0, 0, 0, 0
	p.SoftIRQProb = nil
	tr, _ := runNoisy(t, p, 2, 400*sim.Millisecond)
	// Expect ~ 250Hz * 0.4s * 4 cpus = 400 events.
	n := len(tr.Events)
	if n < 320 || n > 480 {
		t.Fatalf("timer event count %d, want ~400", n)
	}
	for _, e := range tr.Events {
		if e.Source != "local_timer:236" || e.Class != cpusched.ClassIRQ {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

func TestNoiseDeterminism(t *testing.T) {
	a, _ := runNoisy(t, Desktop(), 42, 100*sim.Millisecond)
	b, _ := runNoisy(t, Desktop(), 42, 100*sim.Millisecond)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if a.ExecTime != b.ExecTime {
		t.Fatal("exec times differ for same seed")
	}
	c, _ := runNoisy(t, Desktop(), 43, 100*sim.Millisecond)
	if len(a.Events) == len(c.Events) && a.ExecTime == c.ExecTime {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRunlevel3QuieterThanDesktop(t *testing.T) {
	// GUI bursts are rare (~2/s), so aggregate over enough simulated time
	// for them to show up with near-certainty.
	var withGUI, without sim.Time
	for seed := uint64(0); seed < 10; seed++ {
		a, _ := runNoisy(t, Desktop(), seed, 500*sim.Millisecond)
		b, _ := runNoisy(t, Desktop().WithRunlevel3(), seed, 500*sim.Millisecond)
		withGUI += a.TotalNoise()
		without += b.TotalNoise()
	}
	if without >= withGUI {
		t.Fatalf("runlevel 3 should reduce total noise: rl5=%v rl3=%v", withGUI, without)
	}
}

func TestScaleChangesRates(t *testing.T) {
	base := Desktop()
	p := base.Scale(2)
	if p.TimerHz != base.TimerHz*2 || p.DaemonRate != base.DaemonRate*2 ||
		p.GUIRate != base.GUIRate*2 || p.KworkerRate != base.KworkerRate*2 {
		t.Fatalf("Scale(2) wrong: %+v", p)
	}
}

func TestHPCQuieterThanDesktop(t *testing.T) {
	d, h := Desktop(), HPC()
	if h.GUI {
		t.Fatal("HPC profile must not have GUI noise")
	}
	if h.DaemonRate >= d.DaemonRate || h.KworkerRate >= d.KworkerRate {
		t.Fatal("HPC profile should be quieter than desktop")
	}
}

func TestReservedMaskConfinesThreadNoise(t *testing.T) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.A64FXRsv)
	s := cpusched.New(eng, topo, cpusched.Defaults())
	tracer := trace.NewTracer(0)
	s.SetTracer(tracer)
	p := HPCReserved(topo).Scale(4) // crank rates so the test sees events
	Attach(s, p, sim.NewRNG(7).Stream("noise"), 100*sim.Millisecond)
	w := s.SpawnSeq(cpusched.TaskSpec{Name: "w", Affinity: machine.SetOf(0)},
		cpusched.ReqCompute(float64(90*sim.Millisecond)*s.Topology().CyclesPerNs()))
	eng.RunWhile(func() bool { return !w.Done() })
	tr := tracer.Finish(eng.Now(), "a64fx", "spin", "omp", "Rm", 7)
	s.Shutdown()

	reserved := topo.ReservedMask()
	thr := 0
	for _, e := range tr.Events {
		if e.Class != cpusched.ClassThread {
			continue
		}
		thr++
		if !reserved.Has(e.CPU) {
			t.Fatalf("thread noise escaped onto user CPU %d: %+v", e.CPU, e)
		}
	}
	if thr == 0 {
		t.Fatal("no thread noise observed on reserved cores")
	}
}

func TestSoftirqOrderSorted(t *testing.T) {
	got := softirqOrder(map[string]float64{"z": 1, "a": 2, "m": 3}, nil)
	if got[0].src != "a" || got[1].src != "m" || got[2].src != "z" {
		t.Fatalf("softirqOrder not sorted: %+v", got)
	}
}

func TestHeavyTailProducesOutliers(t *testing.T) {
	// Across many seeds, total daemon noise should vary a lot: the max
	// should dominate the median (heavy tail).
	p := Desktop()
	p.TimerHz = 0
	p.KworkerRate, p.UnboundRate = 0, 0
	var totals []float64
	for seed := uint64(0); seed < 30; seed++ {
		tr, _ := runNoisy(t, p, seed, 150*sim.Millisecond)
		totals = append(totals, float64(tr.TotalNoise()))
	}
	var max, sum float64
	for _, v := range totals {
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(totals))
	if max < 3*mean {
		t.Fatalf("no heavy tail: max=%.0f mean=%.0f", max, mean)
	}
}

func TestDiskStormsOnSteeredCPU(t *testing.T) {
	p := Desktop()
	// Isolate the disk source.
	p.TimerHz, p.KworkerRate, p.UnboundRate, p.DaemonRate, p.GUIRate = 0, 0, 0, 0, 0
	p.DiskRate = 10 // crank so the test window sees storms
	tr, _ := runNoisy(t, p, 6, 300*sim.Millisecond)
	irqs := 0
	for _, e := range tr.Events {
		if e.Class == cpusched.ClassIRQ {
			irqs++
			if e.CPU != p.DiskCPU {
				t.Fatalf("block irq on cpu %d, want steered to %d", e.CPU, p.DiskCPU)
			}
			if e.Source != "nvme0q1:130" {
				t.Fatalf("unexpected irq source %q", e.Source)
			}
		}
	}
	if irqs == 0 {
		t.Fatal("no block irqs observed")
	}
	// Flush kworkers accompany the storms.
	flushes := 0
	for _, e := range tr.Events {
		if e.Class == cpusched.ClassThread {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatal("no writeback flush activity observed")
	}
}

func TestScaleIncludesDisk(t *testing.T) {
	base := Desktop()
	if got := base.Scale(2).DiskRate; got != base.DiskRate*2 {
		t.Fatalf("DiskRate not scaled: %v", got)
	}
}
