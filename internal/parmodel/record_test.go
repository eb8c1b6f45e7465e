package parmodel_test

import (
	"strings"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/omprt"
	"repro/internal/parmodel"
	"repro/internal/sim"
	"repro/internal/syclrt"
	"repro/internal/workloads"
)

// kinds renders a phase list as one letter per phase: P = ParallelFor,
// C = MasterCompute, M = MasterMemory, B = MasterBlockOn.
func kinds(phases []parmodel.Phase) string {
	var b strings.Builder
	for _, p := range phases {
		b.WriteByte("PCMB"[p.Kind])
	}
	return b.String()
}

// TestRecordWorkloads pins the phase list every small workload body
// records under both runtimes: the kinds and their order follow the body's
// loop structure, and trip counts that come straight from the spec match
// it.
func TestRecordWorkloads(t *testing.T) {
	cases := []struct {
		name string
		want func(w workloads.Workload) string
	}{
		{"nbody", func(w workloads.Workload) string {
			return strings.Repeat("PC", w.(workloads.NBodySpec).Steps)
		}},
		{"babelstream", func(w workloads.Workload) string {
			// Copy, Mul, Add, Triad, Dot; Dot ends in a host-side reduction.
			return strings.Repeat("PPPPPC", w.(workloads.StreamSpec).Iters)
		}},
		{"minife", func(w workloads.Workload) string {
			// Assembly, then per CG iteration: SpMV, two dots each with a
			// host reduction, three waxpby updates.
			return "P" + strings.Repeat("PPCPCPPP", w.(workloads.MiniFESpec).CGIters)
		}},
		{"schedbench", func(w workloads.Workload) string {
			return strings.Repeat("P", w.(workloads.SchedBenchSpec).Outer)
		}},
		{"svcloop", func(w workloads.Workload) string {
			return strings.Repeat("P", w.(workloads.SvcLoopSpec).Outer)
		}},
		{"logwriter", func(w workloads.Workload) string {
			// Records in parallel, then the batch write and its fsync.
			return strings.Repeat("PBB", w.(workloads.LogWriterSpec).Outer)
		}},
	}
	for _, c := range cases {
		w, err := workloads.ByName(c.name, "small")
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"omp", "sycl"} {
			phases := parmodel.Record(w.Body(), 4, model)
			if got, want := kinds(phases), c.want(w); got != want {
				t.Errorf("%s/%s: recorded %q, want %q", c.name, model, got, want)
			}
			for i, p := range phases {
				if p.Kind == parmodel.PhaseParallelFor && (p.N <= 0 || p.Cost == nil) {
					t.Errorf("%s/%s: phase %d: ParallelFor n=%d cost=nil:%v", c.name, model, i, p.N, p.Cost == nil)
				}
			}
		}
	}

	// Trip counts and I/O requests the bodies take verbatim from the spec.
	sb, _ := workloads.ByName("schedbench", "small")
	for _, p := range parmodel.Record(sb.Body(), 4, "omp") {
		if p.N != sb.(workloads.SchedBenchSpec).N {
			t.Fatalf("schedbench trip count %d, want %d", p.N, sb.(workloads.SchedBenchSpec).N)
		}
	}
	lw, _ := workloads.ByName("logwriter", "small")
	spec := lw.(workloads.LogWriterSpec)
	dev := spec.Devices()[0].Name
	phases := parmodel.Record(lw.Body(), 4, "sycl")
	if p := phases[0]; p.N != spec.Records {
		t.Fatalf("logwriter trip count %d, want %d", p.N, spec.Records)
	}
	if p := phases[1]; p.Dev != dev || p.Amount != float64(spec.Records)*spec.BytesPerRec {
		t.Fatalf("logwriter batch write = %+v", p)
	}
	if p := phases[2]; p.Dev != dev || p.Amount != 0 {
		t.Fatalf("logwriter fsync = %+v", p)
	}
}

// TestRecordObservesThreadsAndName: the recording model reports the thread
// count and runtime name it was given, the only state a body can observe.
func TestRecordObservesThreadsAndName(t *testing.T) {
	var threads int
	var name string
	phases := parmodel.Record(func(m parmodel.Model) {
		threads, name = m.Threads(), m.Name()
		m.MasterCompute(1)
		m.MasterMemory(2)
		m.MasterBlockOn("disk0", 3)
	}, 7, "sycl")
	if threads != 7 || name != "sycl" {
		t.Fatalf("Threads/Name = %d/%q", threads, name)
	}
	if got := kinds(phases); got != "CMB" {
		t.Fatalf("recorded %q", got)
	}
	if phases[0].Amount != 1 || phases[1].Amount != 2 || phases[2].Amount != 3 || phases[2].Dev != "disk0" {
		t.Fatalf("recorded %+v", phases)
	}
}

// TestNegativeTripCountPanicsAtStart: both runtimes reject a negative
// trip count when they record the body, before any task runs.
func TestNegativeTripCountPanicsAtStart(t *testing.T) {
	body := func(m parmodel.Model) {
		m.ParallelFor(-1, func(int) parmodel.Cost { return parmodel.Cost{} })
	}
	start := map[string]func(*cpusched.Scheduler, *mitigate.Plan){
		"omp": func(s *cpusched.Scheduler, p *mitigate.Plan) {
			omprt.Start(s, p, omprt.DefaultConfig(), body)
		},
		"sycl": func(s *cpusched.Scheduler, p *mitigate.Plan) {
			syclrt.Start(s, p, syclrt.DefaultConfig(), body)
		},
	}
	for model, fn := range start {
		s := cpusched.New(sim.NewEngine(), machine.MustPreset(machine.TinyTest), cpusched.Defaults())
		plan := mitigate.MustApply(mitigate.TP, s.Topology())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative trip count did not panic", model)
				}
			}()
			fn(s, plan)
		}()
		if n := len(s.Tasks()); n != 0 {
			t.Errorf("%s: %d tasks spawned before the panic", model, n)
		}
	}
}
