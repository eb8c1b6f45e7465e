package machine

import (
	"reflect"
	"testing"
)

func TestCPUSetHighWord(t *testing.T) {
	// CPUs >= 64 live in the second word; every operation must cross the
	// boundary cleanly.
	s := SetOf(63, 64, 100, 127)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, c := range []int{63, 64, 100, 127} {
		if !s.Has(c) {
			t.Fatalf("Has(%d) = false", c)
		}
	}
	if s.Has(65) || s.Has(126) {
		t.Fatal("set contains CPUs it should not")
	}
	s = s.Clear(100)
	if s.Has(100) || s.Count() != 3 {
		t.Fatalf("Clear(100) failed: %v", s)
	}
	if got, want := s.List(), []int{63, 64, 127}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
}

func TestCPUSetIteration(t *testing.T) {
	s := SetOf(2, 63, 64, 90)
	var got []int
	for cpu := s.First(); cpu >= 0; cpu = s.NextFrom(cpu + 1) {
		got = append(got, cpu)
	}
	if want := []int{2, 63, 64, 90}; !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration order %v, want %v", got, want)
	}
	var empty CPUSet
	if empty.First() != -1 {
		t.Fatalf("empty First = %d, want -1", empty.First())
	}
	if s.NextFrom(91) != -1 {
		t.Fatalf("NextFrom past last = %d, want -1", s.NextFrom(91))
	}
	if s.NextFrom(-5) != 2 {
		t.Fatalf("NextFrom(-5) = %d, want 2 (clamped to 0)", s.NextFrom(-5))
	}
	if s.NextFrom(MaxCPUs) != -1 {
		t.Fatalf("NextFrom(MaxCPUs) = %d, want -1", s.NextFrom(MaxCPUs))
	}
	if s.NextFrom(63) != 63 {
		t.Fatalf("NextFrom is inclusive: got %d, want 63", s.NextFrom(63))
	}
}

func TestCPUSetHighRangeStringRoundTrip(t *testing.T) {
	if got := SetOf(60, 61, 62, 63, 64, 65, 120).String(); got != "60-65,120" {
		t.Fatalf("String = %q, want \"60-65,120\"", got)
	}
}

func TestCPUSetOutOfRangePanics(t *testing.T) {
	for _, f := range []func(){
		func() { SetOf(MaxCPUs) },
		func() { SetOf(-1) },
		func() { AllCPUs(MaxCPUs + 1) },
		func() { CPUSet{}.Has(MaxCPUs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range cpu")
				}
			}()
			f()
		}()
	}
}
