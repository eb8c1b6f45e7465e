package experiment

import (
	"context"
	"testing"
)

// Figure tests run the real A64FX configurations at minimal rep counts:
// they validate structure and the headline motivation direction (the
// unreserved system is at least as variable as the reserved one in
// aggregate), not statistical magnitudes.

func TestFigure1Structure(t *testing.T) {
	series, err := Figure1Exec(context.Background(), Executor{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 9 schedule:chunk combos x 2 systems.
	if len(series) != 18 {
		t.Fatalf("series = %d, want 18", len(series))
	}
	systems := map[string]int{}
	labels := map[string]bool{}
	for _, s := range series {
		systems[s.System]++
		labels[s.X] = true
		if s.Mean <= 0 || s.Box.Max < s.Box.Min {
			t.Fatalf("bad series: %+v", s)
		}
	}
	if systems["A64FX:reserved"] != 9 || systems["A64FX:w/o"] != 9 {
		t.Fatalf("system split: %v", systems)
	}
	for _, want := range []string{"st:1", "dy:8", "gd:64"} {
		if !labels[want] {
			t.Fatalf("missing x label %s (have %v)", want, labels)
		}
	}
}

func TestFigure2Structure(t *testing.T) {
	series, err := Figure2Exec(context.Background(), Executor{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 6 thread counts x 2 systems.
	if len(series) != 12 {
		t.Fatalf("series = %d, want 12", len(series))
	}
	var full48Rsv, full48Wo *FigureSeries
	for i := range series {
		s := &series[i]
		if s.X == "48" {
			if s.System == "A64FX:reserved" {
				full48Rsv = s
			} else {
				full48Wo = s
			}
		}
		if s.Mean <= 0 {
			t.Fatalf("empty series %+v", s)
		}
	}
	if full48Rsv == nil || full48Wo == nil {
		t.Fatal("missing 48-thread series")
	}
	// More threads should not make the dot kernel slower on the reserved
	// system (bandwidth-bound: threads beyond saturation are ~neutral).
	if full48Rsv.Mean > 3*series[0].Mean {
		t.Fatalf("reserved 48-thread mean implausible: %v vs %v", full48Rsv.Mean, series[0].Mean)
	}
}

func TestSystemLabel(t *testing.T) {
	if systemLabel("a64fx-reserved") != "A64FX:reserved" {
		t.Fatal("reserved label")
	}
	if systemLabel("a64fx-noreserve") != "A64FX:w/o" {
		t.Fatal("w/o label")
	}
	if systemLabel("other") != "other" {
		t.Fatal("passthrough label")
	}
}
