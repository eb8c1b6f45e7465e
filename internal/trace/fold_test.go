package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/sim"
)

// refProfile and refWorst are the batch aggregations the fold replaces,
// kept here as the oracle the fold must match exactly.
func refProfile(traces []*Trace) *Profile {
	p := &Profile{Sources: make(map[SourceKey]SourceStats), Traces: len(traces)}
	var execSum sim.Time
	for _, tr := range traces {
		execSum += tr.ExecTime
		for _, e := range tr.Events {
			k := SourceKey{Class: e.Class, Source: e.Source}
			s := p.Sources[k]
			s.Key = k
			s.Count++
			s.TotalDur += e.Duration
			s.Traces = len(traces)
			p.Sources[k] = s
		}
	}
	if len(traces) > 0 {
		p.MeanExec = execSum / sim.Time(len(traces))
	}
	return p
}

func refWorst(traces []*Trace) (*Trace, int) {
	best := 0
	for i, tr := range traces {
		if tr.ExecTime > traces[best].ExecTime {
			best = i
		}
	}
	return traces[best], best
}

// foldTraces builds n hand-made traces over a handful of sources. Traces
// 3, 7 and 11 share the largest ExecTime, so the worst case is a tie that
// must go to index 3; trace 5 has no events.
func foldTraces(n int) []*Trace {
	classes := []cpusched.NoiseClass{cpusched.ClassIRQ, cpusched.ClassSoftIRQ, cpusched.ClassThread}
	sources := []string{"local_timer:236", "RCU:9", "kworker/3:1", "irq/58-nvme0q3"}
	out := make([]*Trace, n)
	for i := range out {
		tr := &Trace{ExecTime: sim.Time(1000 + 37*i%11), Seed: uint64(i)}
		if i%4 == 3 {
			tr.ExecTime = 5000
		}
		if i != 5 {
			for j := 0; j < 3+i%5; j++ {
				tr.Events = append(tr.Events, Event{
					CPU:      j % 4,
					Class:    classes[(i+j)%len(classes)],
					Source:   sources[(i*j+j)%len(sources)],
					Start:    sim.Time(100 * j),
					Duration: sim.Time(10 + i*j),
				})
			}
		}
		out[i] = tr
	}
	return out
}

// foldInOrder folds traces[order[k]] with its own index, for every k.
func foldInOrder(traces []*Trace, order []int) *Fold {
	var f Fold
	for _, i := range order {
		f.Add(i, traces[i])
	}
	return &f
}

func checkFold(t *testing.T, name string, f *Fold, traces []*Trace) {
	t.Helper()
	if got, want := f.Profile(), refProfile(traces); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: profile = %+v, want %+v", name, got, want)
	}
	w, wi, err := f.Worst()
	rw, rwi := refWorst(traces)
	if err != nil || w != rw || wi != rwi {
		t.Errorf("%s: worst = (%p, %d, %v), want (%p, %d)", name, w, wi, err, rw, rwi)
	}
}

// TestFoldMatchesBatchInAnyOrder folds the same traces forward, reversed
// and shuffled, and requires the batch profile and worst case each time.
func TestFoldMatchesBatchInAnyOrder(t *testing.T) {
	traces := foldTraces(12)
	if _, wi := refWorst(traces); wi != 3 {
		t.Fatalf("fixture: worst index %d, want the tie at 3", wi)
	}
	n := len(traces)
	forward := make([]int, n)
	reverse := make([]int, n)
	for i := range forward {
		forward[i], reverse[i] = i, n-1-i
	}
	checkFold(t, "forward", foldInOrder(traces, forward), traces)
	checkFold(t, "reverse", foldInOrder(traces, reverse), traces)
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 20; s++ {
		checkFold(t, fmt.Sprintf("shuffle %d", s), foldInOrder(traces, rng.Perm(n)), traces)
	}
}

// TestFoldConcurrent folds from two goroutines that share one lock, the
// way a series hands its reps' traces to a fold.
func TestFoldConcurrent(t *testing.T) {
	traces := foldTraces(40)
	for round := 0; round < 20; round++ {
		var (
			f  Fold
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(traces); i += 2 {
					mu.Lock()
					f.Add(i, traces[i])
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		checkFold(t, fmt.Sprintf("round %d", round), &f, traces)
	}
}

// TestFoldTieGoesToLowestIndex adds the later of two equal ExecTimes
// first: the earlier index must still win.
func TestFoldTieGoesToLowestIndex(t *testing.T) {
	a, b := &Trace{ExecTime: 7}, &Trace{ExecTime: 7}
	var f Fold
	if !f.Add(4, b) || !f.Add(2, a) || f.Add(9, &Trace{ExecTime: 6}) || f.Add(5, &Trace{ExecTime: 7}) {
		t.Fatal("Add must report holding exactly the traces that became the worst case")
	}
	if w, wi, err := f.Worst(); err != nil || w != a || wi != 2 {
		t.Fatalf("Worst = (%p, %d, %v), want (%p, 2)", w, wi, err, a)
	}
}

// TestFoldEmpty: an empty fold has the empty profile and errors on Worst
// exactly as WorstCase(nil) does.
func TestFoldEmpty(t *testing.T) {
	var f Fold
	if got, want := f.Profile(), refProfile(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty profile = %+v, want %+v", got, want)
	}
	w, wi, err := f.Worst()
	_, _, want := WorstCase(nil)
	if w != nil || wi != -1 || err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("empty Worst = (%v, %d, %v), want (nil, -1, %v)", w, wi, err, want)
	}
}

// TestFoldProfileIsASnapshot: a profile taken mid-fold does not change
// when more traces are added.
func TestFoldProfileIsASnapshot(t *testing.T) {
	traces := foldTraces(6)
	var f Fold
	for i, tr := range traces[:3] {
		f.Add(i, tr)
	}
	early := f.Profile()
	want := refProfile(traces[:3])
	for i, tr := range traces[3:] {
		f.Add(3+i, tr)
	}
	if !reflect.DeepEqual(early, want) {
		t.Fatalf("profile changed after later adds: %+v, want %+v", early, want)
	}
}
