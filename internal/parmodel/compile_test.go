package parmodel

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/mitigate"
	"repro/internal/sim"
)

// The oracle below is the per-iteration claim walk the runtime ran before
// chunk costs were compiled: each claim computes its range (claimSize for
// dynamic/guided) and re-sums the cost closure over it. Compiled tables
// must reproduce its chunk sums and every request it hands out bit for bit.

type oracleLoop struct {
	n    int
	cost func(int) Cost
	next int
}

// oracleClaimSize returns the chunk size a dynamic/guided claim takes when
// the cursor stands at lo.
func oracleClaimSize(cfg Config, threads, n, lo int) int {
	minChunk := max(cfg.Chunk, 1)
	if cfg.Schedule == Dynamic {
		return minChunk
	}
	return max((n-lo+2*threads-1)/(2*threads), minChunk)
}

// oracleRanges lists a region's chunks [lo, hi) in lo order.
func oracleRanges(cfg Config, threads, n int) [][2]int {
	var out [][2]int
	switch {
	case cfg.Schedule == Static && cfg.Chunk <= 0:
		for id := 0; id < threads; id++ {
			out = append(out, [2]int{id * n / threads, (id + 1) * n / threads})
		}
	case cfg.Schedule == Static:
		for lo := 0; lo < n; lo += cfg.Chunk {
			out = append(out, [2]int{lo, min(lo+cfg.Chunk, n)})
		}
	default:
		for lo := 0; lo < n; {
			hi := min(lo+oracleClaimSize(cfg, threads, n, lo), n)
			out = append(out, [2]int{lo, hi})
			lo = hi
		}
	}
	return out
}

func oracleSum(cost func(int) Cost, lo, hi int) Cost {
	var total Cost
	for i := lo; i < hi; i++ {
		total = total.Add(cost(i))
	}
	return total
}

// oracleWorker is one thread's walk over one region, as the runtime ran
// it per iteration; it shares the team's barriers and devices, so its
// requests compare equal to the compiled walk's.
type oracleWorker struct {
	t     *team
	l     *oracleLoop
	id    int
	state int
	base  int
	mem   float64
	io    float64
	iodev string
}

func (w *oracleWorker) unit(lo, hi int) float64 {
	total := oracleSum(w.l.cost, lo, hi).Scale(w.t.cfg.CostFactor)
	w.mem, w.io, w.iodev = total.Bytes, total.IOBytes, total.IODev
	w.state = wMemory
	return total.Cycles
}

func (w *oracleWorker) afterUnit() int {
	if w.t.cfg.Schedule == Static {
		if w.t.cfg.Chunk <= 0 {
			return wEndBar
		}
		return wStaticNext
	}
	return wDispatch
}

func (w *oracleWorker) next() cpusched.Request {
	t, l := w.t, w.l
	for {
		switch w.state {
		case wBegin:
			switch {
			case t.cfg.Schedule != Static:
				w.state = wDispatch
			case t.cfg.Chunk <= 0:
				lo, hi := w.id*l.n/t.plan.Threads, (w.id+1)*l.n/t.plan.Threads
				return cpusched.ReqCompute(w.unit(lo, hi))
			default:
				w.base = w.id * t.cfg.Chunk
				w.state = wStaticNext
			}
		case wStaticNext:
			if w.base >= l.n {
				w.state = wEndBar
				continue
			}
			lo := w.base
			w.base += t.plan.Threads * t.cfg.Chunk
			return cpusched.ReqCompute(w.unit(lo, min(lo+t.cfg.Chunk, l.n)))
		case wDispatch:
			w.state = wClaim
			return cpusched.ReqCompute(float64(t.cfg.DispatchOverhead) * t.cyclesPerNs)
		case wClaim:
			lo := l.next
			if lo >= l.n {
				w.state = wEndBar
				continue
			}
			l.next = min(lo+oracleClaimSize(t.cfg, t.plan.Threads, l.n, lo), l.n)
			return cpusched.ReqCompute(w.unit(lo, l.next))
		case wMemory:
			b := w.mem
			w.mem = 0
			if w.io > 0 {
				w.state = wIO
			} else {
				w.state = w.afterUnit()
			}
			return cpusched.ReqMemory(b)
		case wIO:
			io, dev := w.io, w.iodev
			w.io, w.iodev = 0, ""
			w.state = w.afterUnit()
			return cpusched.ReqBlockOn(t.device(dev), io)
		case wEndBar:
			w.state = wStartBar
			return cpusched.ReqBarrier(t.endBar, t.cfg.ActiveWait)
		default:
			panic("oracle: unexpected state")
		}
	}
}

const rampDev = "net0"

// costShapes are the non-uniform unit costs the oracle runs: svcloop's
// request cost with its I/O-volume ramp, and cycles and bytes growing by
// 0.1 per iteration, so every reordering of a sum changes its bits.
var costShapes = map[string]func(n int) func(int) Cost{
	"io-ramp": func(n int) func(int) Cost {
		return func(i int) Cost {
			return Cost{Cycles: 180e3, Bytes: 16 << 10,
				IOBytes: 64e3 * (1 + 0.8*float64(i)/float64(n)), IODev: rampDev}
		}
	},
	"tenths": func(int) func(int) Cost {
		return func(i int) Cost { return Cost{Cycles: 0.1 * float64(i), Bytes: 0.3 * float64(i)} }
	},
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCost(a, b Cost) bool {
	return sameBits(a.Cycles, b.Cycles) && sameBits(a.Bytes, b.Bytes) &&
		sameBits(a.IOBytes, b.IOBytes) && a.IODev == b.IODev
}

// sameRequest compares two requests field by field, their demand (cycles
// or bytes) by its bits rather than by ==.
func sameRequest(a, b cpusched.Request) bool {
	demand := func(r cpusched.Request) float64 {
		return reflect.ValueOf(r).Field(0).FieldByName("demand").Float()
	}
	return a == b && sameBits(demand(a), demand(b))
}

// checkCompiled compiles a two-region body (trip counts n and n+1, so the
// second region's table is a window past the first's) and compares it with
// the oracle: every chunk sum, then every request both walks hand out with
// the team's threads fetching in a seeded random order.
func checkCompiled(t *testing.T, cfg Config, threads, n int, shape func(int) func(int) Cost, order uint64) {
	t.Helper()
	ns := []int{n, n + 1}
	costs := []func(int) Cost{shape(ns[0]), shape(ns[1])}
	prog := Compile(func(m Model) {
		m.ParallelFor(ns[0], costs[0])
		m.MasterCompute(1)
		m.ParallelFor(ns[1], costs[1])
	}, threads, cfg)
	name := fmt.Sprintf("%s %v chunk=%d threads=%d", flavours[cfg.flavour].name, cfg.Schedule, cfg.Chunk, threads)

	s := cpusched.New(sim.NewEngine(), machine.MustPreset(machine.TinyTest), cpusched.Defaults())
	s.AddDevice(cpusched.DeviceSpec{Name: rampDev, Latency: sim.Microsecond})
	plan := &mitigate.Plan{Strategy: mitigate.TP, Threads: threads}
	tm := &team{s: s, plan: plan, cfg: prog.cfg, lab: flavours[cfg.flavour],
		startBar: cpusched.NewBarrier(threads), endBar: cpusched.NewBarrier(threads),
		cyclesPerNs: s.Topology().CyclesPerNs()}
	rng := sim.NewRNG(order)

	for r, pc := range []int{0, 2} {
		n, cost := ns[r], costs[r]
		want := oracleRanges(prog.cfg, threads, n)
		got := prog.chunks[pc]
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("%s n=%d: %d chunks (cap %d), oracle %d", name, n, len(got), cap(got), len(want))
		}
		for k, lohi := range want {
			if w := oracleSum(cost, lohi[0], lohi[1]); !sameCost(got[k], w) {
				t.Fatalf("%s n=%d: chunk %d [%d,%d) = %+v, oracle %+v", name, n, k, lohi[0], lohi[1], got[k], w)
			}
		}

		tm.chunks, tm.next = got, 0
		loop := &oracleLoop{n: n, cost: cost}
		ws := make([]*workerProgram, threads)
		ors := make([]*oracleWorker, threads)
		for id := range ws {
			ws[id] = &workerProgram{t: tm, id: id, state: wBegin}
			ors[id] = &oracleWorker{t: tm, l: loop, id: id, state: wBegin}
		}
		live := threads
		for step := 0; live > 0; step++ {
			id := rng.Intn(threads)
			if ws[id].state == wStartBar {
				continue // this thread reached the end barrier
			}
			g, _ := ws[id].Next(nil)
			w := ors[id].next()
			if !sameRequest(g, w) {
				t.Fatalf("%s n=%d: request %d of thread %d = %+v, oracle %+v", name, n, step, id, g, w)
			}
			if ws[id].state == wStartBar {
				live--
			}
		}
		if prog.cfg.Schedule != Static && tm.next != len(got) {
			t.Fatalf("%s n=%d: cursor stopped at chunk %d of %d", name, n, tm.next, len(got))
		}
	}
	if prog.chunks[1] != nil {
		t.Fatalf("%s: master phase has a chunk table", name)
	}
}

// oracleConfigs are the schedules the oracle covers: both presets, and
// OpenMP's static chunked, dynamic and guided schedules, some with a cost
// factor other than 1 so scaling order shows.
func oracleConfigs() []Config {
	withSched := func(s Schedule, chunk int, factor float64) Config {
		cfg := OpenMP()
		cfg.Schedule, cfg.Chunk, cfg.CostFactor = s, chunk, factor
		return cfg
	}
	return []Config{
		OpenMP(),
		withSched(Static, 3, 1.3),
		withSched(Dynamic, 1, 1),
		withSched(Dynamic, 4, 0.9),
		withSched(Guided, 1, 1.3),
		withSched(Guided, 3, 1),
		SYCL(),
	}
}

// TestCompiledChunksMatchClaims: compiled chunk tables hand out the same
// chunks, with bit-equal sums and bit-equal requests, as re-summing the
// cost closure per claim did, for every schedule, team size 1-9 and trip
// counts around the team size.
func TestCompiledChunksMatchClaims(t *testing.T) {
	for _, cfg := range oracleConfigs() {
		for threads := 1; threads <= 9; threads++ {
			for _, n := range []int{0, 1, threads - 1, threads, 7*threads + 3, 513} {
				for shape, cost := range costShapes {
					t.Run(fmt.Sprintf("%s-%v-%d/T%d/n%d/%s", flavours[cfg.flavour].name,
						cfg.Schedule, cfg.Chunk, threads, n, shape), func(t *testing.T) {
						checkCompiled(t, cfg, threads, n, cost, uint64(threads*1000+n))
					})
				}
			}
		}
	}
}

// FuzzCompiledChunks runs the oracle comparison on arbitrary trip counts,
// team sizes, schedules (static, dynamic and guided, plus the SYCL preset)
// and chunk sizes.
func FuzzCompiledChunks(f *testing.F) {
	f.Add(uint16(513), uint8(4), uint8(2), uint8(1))
	f.Add(uint16(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint16(31), uint8(9), uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, n uint16, threads, sched, chunk uint8) {
		T := 1 + int(threads)%64
		var cfg Config
		switch sched % 4 {
		case 3:
			cfg = SYCL()
		default:
			cfg = OpenMP()
			cfg.Schedule = Schedule(sched % 4)
			cfg.CostFactor = 1.3
		}
		cfg.Chunk = int(chunk) % 70
		nn := int(n) % 2048
		checkCompiled(t, cfg, T, nn, costShapes["io-ramp"], uint64(nn)<<8|uint64(T))
		checkCompiled(t, cfg, T, nn, costShapes["tenths"], uint64(nn)<<8|uint64(T)+1)
	})
}

// TestStartPanicsOnThreadMismatch: a program compiled for one team size
// cannot run on a plan of another.
func TestStartPanicsOnThreadMismatch(t *testing.T) {
	s := newSched()
	plan := mitigate.MustApply(mitigate.TP, s.Topology())
	prog := Compile(func(m Model) { m.ParallelFor(8, uniform(1e6)) }, plan.Threads+1, OpenMP())
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("omprt: program compiled for %d threads, plan has %d", plan.Threads+1, plan.Threads)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want %q", msg, want)
		}
		if n := len(s.Tasks()); n != 0 {
			t.Fatalf("%d tasks spawned before the panic", n)
		}
	}()
	Start(s, plan, prog)
}

// TestCompileSizesTableOnce: a program's chunk table is one exact-size
// allocation, so compiling costs the same number of allocations whatever
// the number of chunks.
func TestCompileSizesTableOnce(t *testing.T) {
	cfg := OpenMP()
	cfg.Schedule, cfg.Chunk = Dynamic, 1
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			Compile(func(m Model) { m.ParallelFor(n, uniform(1)) }, 4, cfg)
		})
	}
	if small, large := allocs(10), allocs(10000); small != large {
		t.Fatalf("Compile allocations grow with the chunk count: %v at 10 chunks, %v at 10000", small, large)
	}
}
