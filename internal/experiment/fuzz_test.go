package experiment

import (
	"math"
	"testing"

	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FuzzSeedAt pins the seed-derivation contract the fleet splitter depends
// on, including at the wrap boundary: arithmetic is modulo 2^64, the
// composition SeedAt(SeedAt(base, off), j) == SeedAt(base, off+j) holds
// wrapped or not, and because the stride is odd no two rep indices in a
// window ever share a seed.
func FuzzSeedAt(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint8(4))
	f.Add(uint64(7), uint16(3), uint8(9))
	f.Add(uint64(math.MaxUint64), uint16(1), uint8(8))
	f.Add(uint64(math.MaxUint64)-seedStride, uint16(2), uint8(5))
	f.Add(uint64(math.MaxUint64)-3*seedStride+1, uint16(200), uint8(16))
	f.Fuzz(func(t *testing.T, base uint64, off uint16, n uint8) {
		if SeedAt(base, 0) != base {
			t.Fatalf("SeedAt(%d, 0) = %d", base, SeedAt(base, 0))
		}
		// Stride law under wrapping: each step adds exactly the stride
		// modulo 2^64.
		for i := 0; i < int(n); i++ {
			if got, want := SeedAt(base, i+1), SeedAt(base, i)+seedStride; got != want {
				t.Fatalf("step %d: SeedAt = %d, want %d", i+1, got, want)
			}
		}
		// Split/merge composition: a sub-series starting at the off-th seed
		// reproduces reps [off, off+n) of the parent series.
		sub := SeedAt(base, int(off))
		for j := 0; j < int(n); j++ {
			if got, want := SeedAt(sub, j), SeedAt(base, int(off)+j); got != want {
				t.Fatalf("composition: SeedAt(SeedAt(base,%d),%d) = %d, want %d",
					off, j, got, want)
			}
		}
		// Injectivity in a window: the stride is odd, so distinct indices
		// map to distinct seeds even when the values wrap.
		seen := make(map[uint64]int, n)
		for i := 0; i < int(n); i++ {
			s := SeedAt(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: reps %d and %d both get %d", prev, i, s)
			}
			seen[s] = i
		}
	})
}

// FuzzBatchEqualsFresh fuzzes the snapshot/fork contract: for a random
// small spec, a rep executed in a world warmed by a different-seed rep must
// produce exactly the result of a fresh world — execution time, scheduler
// counters, and the full trace. Any divergence means forked state leaked
// into a scheduling decision, which would silently poison every batched
// series (and the rescache content keys built on their determinism).
func FuzzBatchEqualsFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint64(1), true, 0.0, false)
	f.Add(uint8(1), uint8(1), uint8(3), uint64(99), false, 2.5, true)
	f.Add(uint8(2), uint8(0), uint8(5), uint64(7), true, 0.5, false)
	f.Add(uint8(3), uint8(1), uint8(2), uint64(123456789), false, 0.0, true)
	f.Fuzz(func(t *testing.T, workloadSel, modelSel, stratSel uint8,
		seed uint64, tracing bool, noiseScale float64, runlevel3 bool) {
		works := []string{"nbody", "babelstream", "minife", "schedbench"}
		models := []string{"omp", "sycl"}
		strategies := mitigate.Columns()
		if noiseScale < 0 || noiseScale > 4 || noiseScale != noiseScale {
			t.Skip() // negative, huge, or NaN scales are rejected elsewhere
		}
		p, err := platform.New("tiny-test")
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.ByName(works[int(workloadSel)%len(works)], "small")
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{
			Platform: p, Workload: w,
			Model:      models[int(modelSel)%len(models)],
			Strategy:   strategies[int(stratSel)%len(strategies)],
			Seed:       seed,
			Tracing:    tracing,
			NoiseScale: noiseScale,
			Runlevel3:  runlevel3,
		}
		plan, err := mitigate.Apply(spec.Strategy, spec.Platform.Topo)
		if err != nil {
			t.Skip() // strategy not applicable to this topology
		}
		key := worldKeyFor(spec)

		fresh, err := newWorld(key, true).run(spec, plan)
		if err != nil {
			t.Skip() // invalid spec fails identically either way
		}

		warm := newWorld(key, true)
		warmup := spec
		warmup.Seed = seed + 1
		if _, err := warm.run(warmup, plan); err != nil {
			t.Fatal(err)
		}
		got, err := warm.run(spec, plan)
		if err != nil {
			t.Fatalf("warm rep failed where fresh succeeded: %v", err)
		}

		if got.ExecTime != fresh.ExecTime {
			t.Fatalf("exec time diverged: warm %v, fresh %v", got.ExecTime, fresh.ExecTime)
		}
		if got.ContextSwitches != fresh.ContextSwitches ||
			got.InlineDispatches != fresh.InlineDispatches {
			t.Fatalf("counters diverged: warm %d/%d, fresh %d/%d",
				got.ContextSwitches, got.InlineDispatches,
				fresh.ContextSwitches, fresh.InlineDispatches)
		}
		if spec.Tracing {
			gh, gn := fingerprintTraces([]*trace.Trace{got.Trace})
			fh, fn := fingerprintTraces([]*trace.Trace{fresh.Trace})
			if gh != fh || gn != fn {
				t.Fatalf("trace diverged: warm %s (%d events), fresh %s (%d events)", gh, gn, fh, fn)
			}
		}
	})
}
