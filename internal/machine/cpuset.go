package machine

import (
	"fmt"
	"math/bits"
	"strings"
)

// CPUSet is an affinity mask over up to 128 logical CPUs. The zero value is
// the empty set. It is a value type: all operations return a new set.
type CPUSet struct {
	lo, hi uint64
}

// MaxCPUs is the largest logical CPU index a CPUSet can hold, plus one.
const MaxCPUs = 128

// AllCPUs returns the set {0, ..., n-1}.
func AllCPUs(n int) CPUSet {
	if n < 0 || n > MaxCPUs {
		panic(fmt.Sprintf("machine: AllCPUs(%d) out of range", n))
	}
	var s CPUSet
	switch {
	case n <= 64:
		if n == 64 {
			s.lo = ^uint64(0)
		} else {
			s.lo = (uint64(1) << uint(n)) - 1
		}
	default:
		s.lo = ^uint64(0)
		if n == 128 {
			s.hi = ^uint64(0)
		} else {
			s.hi = (uint64(1) << uint(n-64)) - 1
		}
	}
	return s
}

// SetOf returns a set containing exactly the given CPUs.
func SetOf(cpus ...int) CPUSet {
	var s CPUSet
	for _, c := range cpus {
		s = s.Set(c)
	}
	return s
}

func check(cpu int) {
	if cpu < 0 || cpu >= MaxCPUs {
		panic(fmt.Sprintf("machine: cpu %d out of range", cpu))
	}
}

// Set returns s with cpu added.
func (s CPUSet) Set(cpu int) CPUSet {
	check(cpu)
	if cpu < 64 {
		s.lo |= 1 << uint(cpu)
	} else {
		s.hi |= 1 << uint(cpu-64)
	}
	return s
}

// Clear returns s with cpu removed.
func (s CPUSet) Clear(cpu int) CPUSet {
	check(cpu)
	if cpu < 64 {
		s.lo &^= 1 << uint(cpu)
	} else {
		s.hi &^= 1 << uint(cpu-64)
	}
	return s
}

// Has reports whether cpu is in the set.
func (s CPUSet) Has(cpu int) bool {
	check(cpu)
	if cpu < 64 {
		return s.lo&(1<<uint(cpu)) != 0
	}
	return s.hi&(1<<uint(cpu-64)) != 0
}

// Count returns the number of CPUs in the set.
func (s CPUSet) Count() int { return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi) }

// Empty reports whether the set contains no CPUs.
func (s CPUSet) Empty() bool { return s.lo == 0 && s.hi == 0 }

// And returns the intersection of s and o.
func (s CPUSet) And(o CPUSet) CPUSet { return CPUSet{s.lo & o.lo, s.hi & o.hi} }

// Or returns the union of s and o.
func (s CPUSet) Or(o CPUSet) CPUSet { return CPUSet{s.lo | o.lo, s.hi | o.hi} }

// Minus returns s with the CPUs of o removed.
func (s CPUSet) Minus(o CPUSet) CPUSet { return CPUSet{s.lo &^ o.lo, s.hi &^ o.hi} }

// Equal reports whether both sets contain the same CPUs.
func (s CPUSet) Equal(o CPUSet) bool { return s == o }

// List returns the CPUs in the set in ascending order.
func (s CPUSet) List() []int {
	out := make([]int, 0, s.Count())
	for w, word := range [2]uint64{s.lo, s.hi} {
		base := w * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, base+b)
			word &^= 1 << uint(b)
		}
	}
	return out
}

// NextFrom returns the lowest CPU >= from in the set, or -1 when none.
// Together with First it supports allocation-free iteration:
//
//	for cpu := s.First(); cpu >= 0; cpu = s.NextFrom(cpu + 1) { ... }
func (s CPUSet) NextFrom(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= MaxCPUs {
		return -1
	}
	if from < 64 {
		if w := s.lo >> uint(from); w != 0 {
			return from + bits.TrailingZeros64(w)
		}
		if s.hi != 0 {
			return 64 + bits.TrailingZeros64(s.hi)
		}
		return -1
	}
	if w := s.hi >> uint(from-64); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	return -1
}

// First returns the lowest CPU in the set, or -1 when empty.
func (s CPUSet) First() int {
	if s.lo != 0 {
		return bits.TrailingZeros64(s.lo)
	}
	if s.hi != 0 {
		return 64 + bits.TrailingZeros64(s.hi)
	}
	return -1
}

// String renders the set as a Linux-style range list, e.g. "0-3,8,10-11".
func (s CPUSet) String() string {
	cpus := s.List()
	if len(cpus) == 0 {
		return "none"
	}
	var b strings.Builder
	i := 0
	for i < len(cpus) {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", cpus[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", cpus[i], cpus[j])
		}
		i = j + 1
	}
	return b.String()
}
