package sim

import "testing"

// Engine microbenchmarks: the event loop is the innermost layer of every
// simulated run, so per-event costs here multiply through the whole
// evaluation harness. `make bench-kernel` records these in BENCH_kernel.json.

// BenchmarkEngineEventThroughput measures raw schedule+fire cost with a
// self-rescheduling timer chain (the noise-generator pattern) over an event
// queue that stays ~1k entries deep.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	var tick func()
	n := 0
	tick = func() {
		n++
		e.After(depth, tick)
	}
	for i := 0; i < depth; i++ {
		e.After(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineRunUntil measures the deadline-check-and-fire loop over a
// 64-event periodic chain. In steady state each re-armed tick is the
// queue's new maximum, so every pop sifts a large leaf down from the root:
// the heap's worst pattern, where a sorted array would only append.
func BenchmarkEngineRunUntil(b *testing.B) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(10, tick) }
	for i := 0; i < 64; i++ {
		e.After(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 100)
	}
}

// BenchmarkEngineCancel measures schedule+cancel cycles — the slice-timer
// and completion-timer churn pattern in the CPU scheduler. Cancel removes
// the timer from the heap at once and returns it to the free list, so the
// cycle is allocation-free.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Background population so cancels hit an interior heap.
	for i := 0; i < 256; i++ {
		e.At(Time(1<<40)+Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(1000, fn)
		tm.Cancel()
	}
}

// BenchmarkEngineTickIRQ follows the traffic of a noise-injected run: 90
// far periodic ticks, each of which arms a near event (an interrupt's end)
// that fires before the next tick. A near event is the earliest pending
// one when it is armed, so it takes the engine's front slot and pops
// without a heap sift; the ticks pop from the heap.
func BenchmarkEngineTickIRQ(b *testing.B) {
	e := NewEngine()
	const ticks, period = 90, 90_000
	irqEnd := func() {}
	var tick func()
	tick = func() {
		e.After(period, tick)
		e.After(50, irqEnd)
	}
	for i := 0; i < ticks; i++ {
		e.At(Time(i*period/ticks), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
