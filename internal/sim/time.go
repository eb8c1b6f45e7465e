// Package sim provides a deterministic discrete-event simulation engine and
// seeded random-number streams. All higher layers (machine model, OS
// scheduler, noise sources) are built on it, so a full experiment is a pure
// function of its configuration and seed.
package sim

import "fmt"

// Time is simulated time in nanoseconds since the start of the simulation.
type Time int64

// Duration constants in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated instant. It is used as the
// completion time of unbounded work (for example a spinning barrier wait).
const MaxTime Time = 1<<63 - 1

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.234ms".
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "+inf"
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}
