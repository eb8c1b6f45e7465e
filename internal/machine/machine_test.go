package machine

import (
	"testing"
	"testing/quick"
)

func TestPresetsValid(t *testing.T) {
	for _, name := range PresetNames() {
		topo, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("Preset(%q) invalid: %v", name, err)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("no-such-machine"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestAMDTopology(t *testing.T) {
	topo := MustPreset(AMD9950X3D)
	if got := topo.NumCPUs(); got != 32 {
		t.Fatalf("NumCPUs = %d, want 32", got)
	}
	// Linux numbering: sibling of CPU 3 is CPU 19 on a 16-core part.
	if got := topo.Sibling(3); got != 19 {
		t.Fatalf("Sibling(3) = %d, want 19", got)
	}
	if got := topo.Sibling(19); got != 3 {
		t.Fatalf("Sibling(19) = %d, want 3", got)
	}
	if got := topo.CoreOf(19); got != 3 {
		t.Fatalf("CoreOf(19) = %d, want 3", got)
	}
	if !topo.IsPrimaryThread(3) || topo.IsPrimaryThread(19) {
		t.Fatal("primary-thread classification wrong")
	}
}

func TestIntelTopologyNoSMT(t *testing.T) {
	topo := MustPreset(Intel9700KF)
	if got := topo.NumCPUs(); got != 8 {
		t.Fatalf("NumCPUs = %d, want 8", got)
	}
	if got := topo.Sibling(2); got != -1 {
		t.Fatalf("Sibling(2) = %d, want -1 on non-SMT part", got)
	}
	if got := topo.CoreOf(5); got != 5 {
		t.Fatalf("CoreOf(5) = %d, want 5", got)
	}
}

func TestA64FXReservedMask(t *testing.T) {
	rsv := MustPreset(A64FXRsv)
	if got := rsv.UserMask().Count(); got != 48 {
		t.Fatalf("reserved A64FX user CPUs = %d, want 48", got)
	}
	if rsv.UserMask().Has(48) || rsv.UserMask().Has(49) {
		t.Fatal("reserved cores must be hidden from user mask")
	}
	if got := rsv.ReservedMask().Count(); got != 2 {
		t.Fatalf("reserved mask count = %d, want 2", got)
	}
	norsv := MustPreset(A64FXNoRsv)
	if got := norsv.UserMask().Count(); got != 48 {
		t.Fatalf("no-reserve A64FX user CPUs = %d, want 48", got)
	}
	if !norsv.ReservedMask().Empty() {
		t.Fatal("no-reserve A64FX should have empty reserved mask")
	}
}

func TestMemRateSaturation(t *testing.T) {
	topo := MustPreset(Intel9700KF)
	one := topo.MemRate(1)
	if one != topo.CoreBWGBps {
		t.Fatalf("single stream should be core-capped: %v", one)
	}
	// With 8 streams, each gets 34/8 = 4.25 GB/s < core cap.
	eight := topo.MemRate(8)
	if eight >= one {
		t.Fatal("bandwidth per stream must fall once saturated")
	}
	if total := eight * 8; total < topo.MemBWGBps*0.99 || total > topo.MemBWGBps*1.01 {
		t.Fatalf("aggregate bandwidth %v should equal machine cap %v", total, topo.MemBWGBps)
	}
	if topo.MemRate(0) != topo.CoreBWGBps {
		t.Fatal("MemRate(0) should be the core cap")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Topology{
		{Name: "x", Cores: 0, ThreadsPerCore: 1, BaseGHz: 1, MemBWGBps: 1, CoreBWGBps: 1},
		{Name: "x", Cores: 2, ThreadsPerCore: 3, BaseGHz: 1, MemBWGBps: 1, CoreBWGBps: 1},
		{Name: "x", Cores: 2, ThreadsPerCore: 1, BaseGHz: 0, MemBWGBps: 1, CoreBWGBps: 1},
		{Name: "x", Cores: 2, ThreadsPerCore: 2, BaseGHz: 1, SMTFactor: 1.5, MemBWGBps: 1, CoreBWGBps: 1},
		{Name: "x", Cores: 2, ThreadsPerCore: 1, BaseGHz: 1, MemBWGBps: 0, CoreBWGBps: 1},
		{Name: "x", Cores: 2, ThreadsPerCore: 1, BaseGHz: 1, MemBWGBps: 1, CoreBWGBps: 1, ReservedOSCores: []int{5}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCPUSetBasics(t *testing.T) {
	s := SetOf(0, 3, 64, 100)
	for _, c := range []int{0, 3, 64, 100} {
		if !s.Has(c) {
			t.Fatalf("set should contain %d", c)
		}
	}
	if s.Has(1) || s.Has(63) || s.Has(99) {
		t.Fatal("set contains unexpected CPUs")
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	s = s.Clear(64)
	if s.Has(64) || s.Count() != 3 {
		t.Fatal("Clear failed")
	}
	if got := s.First(); got != 0 {
		t.Fatalf("First = %d, want 0", got)
	}
	if (CPUSet{}).First() != -1 {
		t.Fatal("First of empty set should be -1")
	}
}

func TestCPUSetOps(t *testing.T) {
	a := SetOf(1, 2, 3, 70)
	b := SetOf(2, 3, 4, 71)
	if got := a.And(b); !got.Equal(SetOf(2, 3)) {
		t.Fatalf("And = %v", got)
	}
	if got := a.Or(b); !got.Equal(SetOf(1, 2, 3, 4, 70, 71)) {
		t.Fatalf("Or = %v", got)
	}
	if got := a.Minus(b); !got.Equal(SetOf(1, 70)) {
		t.Fatalf("Minus = %v", got)
	}
}

func TestAllCPUsBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		s := AllCPUs(n)
		if got := s.Count(); got != n {
			t.Fatalf("AllCPUs(%d).Count() = %d", n, got)
		}
		if n > 0 && (!s.Has(0) || !s.Has(n-1)) {
			t.Fatalf("AllCPUs(%d) missing endpoints", n)
		}
		if n < MaxCPUs && s.Has(n) {
			t.Fatalf("AllCPUs(%d) contains %d", n, n)
		}
	}
}

func TestCPUSetStringRoundTrip(t *testing.T) {
	// String renders the Linux range-list form that cpuset and taskset
	// read, so each set must print as exactly this literal.
	cases := []struct {
		set  CPUSet
		want string
	}{
		{CPUSet{}, "none"},
		{SetOf(0), "0"},
		{SetOf(0, 1, 2, 3), "0-3"},
		{SetOf(0, 2, 4, 6), "0,2,4,6"},
		{SetOf(0, 1, 5, 6, 7, 100), "0-1,5-7,100"},
		{AllCPUs(48), "0-47"},
	}
	for _, c := range cases {
		if got := c.set.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCPUSetStringFormat(t *testing.T) {
	if got := SetOf(0, 1, 2, 8, 10, 11).String(); got != "0-2,8,10-11" {
		t.Fatalf("String = %q", got)
	}
	if got := (CPUSet{}).String(); got != "none" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: List is sorted, unique, and consistent with Has/Count.
func TestCPUSetListProperty(t *testing.T) {
	f := func(cpus []uint8) bool {
		var s CPUSet
		for _, c := range cpus {
			s = s.Set(int(c) % MaxCPUs)
		}
		l := s.List()
		if len(l) != s.Count() {
			return false
		}
		for i, c := range l {
			if !s.Has(c) {
				return false
			}
			if i > 0 && l[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Minus then Or with the same operand restores a superset
// relationship, and And is always a subset of both operands.
func TestCPUSetAlgebraProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b CPUSet
		for _, c := range xs {
			a = a.Set(int(c) % MaxCPUs)
		}
		for _, c := range ys {
			b = b.Set(int(c) % MaxCPUs)
		}
		inter := a.And(b)
		if !inter.Minus(a).Empty() || !inter.Minus(b).Empty() {
			return false
		}
		return a.Minus(b).Or(inter).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
