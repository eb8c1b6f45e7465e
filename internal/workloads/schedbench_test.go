package workloads

import (
	"math"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

func TestSchedBenchChecksumsAgree(t *testing.T) {
	sb := &SchedBench{N: 200, Work: 50, Imbalance: 1.0}
	ref := sb.Run(SchedStatic, 1, 1)
	for _, kind := range []SchedKind{SchedStatic, SchedDynamic, SchedGuided} {
		for _, chunk := range []int{1, 4, 16} {
			for _, threads := range []int{1, 2, 4} {
				got := sb.Run(kind, chunk, threads)
				if math.Abs(got-ref) > math.Abs(ref)*1e-12 {
					t.Fatalf("kind=%d chunk=%d threads=%d checksum %v != %v",
						kind, chunk, threads, got, ref)
				}
			}
		}
	}
}

func TestSchedBenchWorkRamp(t *testing.T) {
	sb := &SchedBench{N: 100, Work: 100, Imbalance: 1.0}
	if sb.workOf(0) != 100 {
		t.Fatalf("workOf(0) = %d", sb.workOf(0))
	}
	if sb.workOf(99) != 199 {
		t.Fatalf("workOf(99) = %d", sb.workOf(99))
	}
}

// runModel executes a workload cost model on the simulated tiny machine and
// returns the wall time.
func runModel(t *testing.T, w Workload, model string) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	s := cpusched.New(eng, topo, opt)
	if iow, ok := w.(IOWorkload); ok {
		for _, d := range iow.Devices() {
			s.AddDevice(d)
		}
	}
	plan := mitigate.MustApply(mitigate.TP, topo)
	var cfg parmodel.Config
	switch model {
	case "omp":
		cfg = parmodel.OpenMP()
	case "sycl":
		cfg = parmodel.SYCL()
	default:
		t.Fatalf("bad model %q", model)
	}
	doneTask := parmodel.Start(s, plan, parmodel.Compile(w.Body(), plan.Threads, cfg))
	eng.RunWhile(func() bool { return !doneTask.Done() })
	end := eng.Now()
	s.Shutdown()
	return end
}

func smallSpecs(t *testing.T) []Workload {
	t.Helper()
	var out []Workload
	for _, name := range Names() {
		w, err := ByName(name, "small")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestModelsRunOnBothRuntimes(t *testing.T) {
	for _, w := range smallSpecs(t) {
		omp := runModel(t, w, "omp")
		sycl := runModel(t, w, "sycl")
		if omp <= 0 || sycl <= 0 {
			t.Fatalf("%s: zero exec time", w.Name())
		}
		switch w.Name() {
		case "schedbench", "svcloop", "logwriter":
			// schedbench is OpenMP-only in the paper; the I/O workloads are
			// device-paced, so the runtimes' compute-efficiency gap need not
			// dominate. Factor 1.0 for all three.
			continue
		}
		if sycl <= omp {
			t.Fatalf("%s: SYCL (%v) should be slower raw than OMP (%v)", w.Name(), sycl, omp)
		}
	}
}

func TestSYCLGapOrderingAcrossWorkloads(t *testing.T) {
	// The paper's baselines: MiniFE has the largest SYCL/OMP gap, then
	// N-body, then Babelstream.
	gap := func(name string) float64 {
		w, err := ByName(name, "small")
		if err != nil {
			t.Fatal(err)
		}
		omp := runModel(t, w, "omp")
		sycl := runModel(t, w, "sycl")
		return float64(sycl) / float64(omp)
	}
	nbody := gap("nbody")
	stream := gap("babelstream")
	minife := gap("minife")
	if !(minife > nbody && nbody > stream && stream > 1.0) {
		t.Fatalf("gap ordering wrong: minife=%.2f nbody=%.2f stream=%.2f", minife, nbody, stream)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("fft", "small"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestDefaultSpecsNamed(t *testing.T) {
	if DefaultNBodySpec().Name() != "nbody" ||
		DefaultStreamSpec().Name() != "babelstream" ||
		DefaultMiniFESpec().Name() != "minife" ||
		DefaultSchedBenchSpec().Name() != "schedbench" ||
		DefaultSvcLoopSpec().Name() != "svcloop" ||
		DefaultLogWriterSpec().Name() != "logwriter" {
		t.Fatal("spec names wrong")
	}
	if len(Names()) != 6 {
		t.Fatal("Names() should list 6 workloads")
	}
}

func TestSchedBenchModelImbalanceVisible(t *testing.T) {
	// Static scheduling of an imbalanced ramp is slower than dynamic with
	// small chunks (the classic schedbench observation).
	spec := SchedBenchSpec{Outer: 5, N: 256, CyclesPerIter: 300e3, Imbalance: 2.0}
	run := func(schedKind parmodel.Schedule, chunk int) sim.Time {
		eng := sim.NewEngine()
		topo := machine.MustPreset(machine.TinyTest)
		s := cpusched.New(eng, topo, cpusched.Defaults())
		plan := mitigate.MustApply(mitigate.TP, topo)
		cfg := parmodel.OpenMP()
		cfg.Schedule = schedKind
		cfg.Chunk = chunk
		master := parmodel.Start(s, plan, parmodel.Compile(spec.Body(), plan.Threads, cfg))
		eng.RunWhile(func() bool { return !master.Done() })
		end := eng.Now()
		s.Shutdown()
		return end
	}
	static := run(parmodel.Static, 0)
	dynamic := run(parmodel.Dynamic, 4)
	if dynamic >= static {
		t.Fatalf("dynamic (%v) should beat static (%v) on an imbalanced ramp", dynamic, static)
	}
}

var modelSink parmodel.Cost

func BenchmarkNBodyModelSim(b *testing.B) {
	w, _ := ByName("nbody", "small")
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		topo := machine.MustPreset(machine.TinyTest)
		s := cpusched.New(eng, topo, cpusched.Defaults())
		plan := mitigate.MustApply(mitigate.TP, topo)
		master := parmodel.Start(s, plan, parmodel.Compile(w.Body(), plan.Threads, parmodel.OpenMP()))
		eng.RunWhile(func() bool { return !master.Done() })
		s.Shutdown()
	}
}
