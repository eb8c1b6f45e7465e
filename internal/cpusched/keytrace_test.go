package cpusched

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Key traces pin the scheduler's completion keys at every instant
// boundary: after each instant's last event, the (time, sequence) key of
// every running task's completion, its remaining demand and rate as exact
// float bits, and the engine's step count. The fixtures under testdata
// were recorded before same-instant stream walks were deferred, so they
// check that a deferred walk leaves the keys exactly where the full walks
// put them. Rewrite them only for a deliberate model change:
//
//	go test ./internal/cpusched -run 'KeyTrace' -update-keytraces

var updateKeyTraces = flag.Bool("update-keytraces", false, "rewrite the key-trace fixtures under testdata")

// nopHook is a tracer that records nothing: attaching it makes every
// recorded event steal Options.TraceOverhead, which exercises the
// pending-steal path of the rate model.
type nopHook struct{}

func (nopHook) TaskRan(int, *Task, sim.Time, sim.Time)             {}
func (nopHook) IRQRan(int, NoiseClass, string, sim.Time, sim.Time) {}

// keyTraceWorld builds a fresh, identical world on every call: the
// engine, its schedulers, and a predicate that reports the world finished.
type keyTraceWorld func() (*sim.Engine, []*Scheduler, func() bool)

// keyTrace runs a world twice. The first run steps event by event to learn
// the distinct instants at which events fire; the second runs up to each
// instant in turn with RunUntil and records the schedulers' completion
// state there, one line per instant.
func keyTrace(build keyTraceWorld) string {
	eng, _, done := build()
	var instants []sim.Time
	for !done() && eng.Step() {
		if n := len(instants); n == 0 || instants[n-1] != eng.Now() {
			instants = append(instants, eng.Now())
		}
	}
	eng, scheds, _ := build()
	var b strings.Builder
	for _, at := range instants {
		eng.RunUntil(at)
		fmt.Fprintf(&b, "%d steps=%d", at, eng.Steps)
		for k, s := range scheds {
			if k > 0 {
				b.WriteString(" |")
			}
			for _, c := range s.cpus {
				t := c.curr
				if t == nil {
					continue
				}
				fmt.Fprintf(&b, " %d:%d/%d rem=%x rate=%x", c.id, t.ID, t.seg.kind,
					math.Float64bits(t.remaining), math.Float64bits(t.rate))
				if t.memIdx >= 0 {
					m := s.memGroup[t.memIdx]
					fmt.Fprintf(&b, " key=%d/%d", m.at, m.seq)
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkKeyTrace compares got with the fixture file name, or rewrites it
// under -update-keytraces.
func checkKeyTrace(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateKeyTraces {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, fixture has %d", name, len(gl), len(wl))
}

// stormWorker is one worker of the barrier-storm fixture: each round it
// streams memory and waits at the shared barrier, so every release starts
// all workers' streams at one instant. Odd workers stream twice in a row,
// so a stream also starts at the instant the previous one completed.
type stormWorker struct {
	id, rounds int
	bar        *Barrier
	spin       bool
	round, pc  int
}

func (p *stormWorker) Next(*Task) (Request, bool) {
	if p.round >= p.rounds {
		return Request{}, false
	}
	bytes := float64(1+(p.id*7+p.round*3)%5) * 40_000
	p.pc++
	switch {
	case p.pc == 1:
		return ReqMemory(bytes), true
	case p.pc == 2 && p.id%2 == 1:
		return ReqMemory(bytes / 2), true
	default:
		p.pc = 0
		p.round++
		return ReqBarrier(p.bar, p.spin), true
	}
}

// spawnStorm builds one barrier-storm machine on eng: one worker pinned to
// each CPU of the 8-core Intel preset, half spinning and half blocking at
// the barrier, with a periodic interrupt train that lands on a different
// CPU each time and so often overlaps a release. traced attaches a tracer
// whose records steal CPU time. It returns the scheduler and its workers.
func spawnStorm(eng *sim.Engine, traced bool) (*Scheduler, []*Task) {
	topo := machine.MustPreset(machine.Intel9700KF)
	s := New(eng, topo, noBalance())
	if traced {
		s.SetTracer(nopHook{})
	}
	n := topo.NumCPUs()
	bar := NewBarrier(n)
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = s.SpawnProgram(TaskSpec{Name: fmt.Sprint("w", i), Kind: KindWorkload,
			Affinity: machine.SetOf(i)}, &stormWorker{id: i, rounds: 6, bar: bar, spin: i%2 == 0})
	}
	for k := 0; k < 40; k++ {
		cpu := (k * 3) % n
		eng.At(sim.Time(k)*7*sim.Microsecond, func() {
			s.InjectIRQ(cpu, ClassIRQ, "storm-irq", sim.Time(1+k%4)*sim.Microsecond)
		})
	}
	return s, tasks
}

// buildStorm builds the barrier-storm world: machines storm machines on
// one engine, as a cluster world shares one engine among its nodes. Equal
// machines release their barriers at the same instants.
func buildStorm(machines int, traced bool) keyTraceWorld {
	return func() (*sim.Engine, []*Scheduler, func() bool) {
		eng := sim.NewEngine()
		var scheds []*Scheduler
		var tasks []*Task
		for range machines {
			s, ts := spawnStorm(eng, traced)
			scheds = append(scheds, s)
			tasks = append(tasks, ts...)
		}
		return eng, scheds, func() bool {
			for _, t := range tasks {
				if !t.Done() {
					return false
				}
			}
			return true
		}
	}
}

// TestStormKeyTrace pins the barrier storm's completion keys, plain,
// traced, and on two machines sharing one engine, against fixtures
// recorded with one full stream walk per stream start or stop.
func TestStormKeyTrace(t *testing.T) {
	checkKeyTrace(t, "storm_plain.keytrace", keyTrace(buildStorm(1, false)))
	checkKeyTrace(t, "storm_traced.keytrace", keyTrace(buildStorm(1, true)))
	checkKeyTrace(t, "storm_shared.keytrace", keyTrace(buildStorm(2, false)))
}

// buildStress builds the randomized stress world of stressScenario: a mix
// of policies, affinities, sleeps, memory and compute segments, spinning
// and blocking barriers, and an interrupt storm. traced attaches a tracer
// whose records steal CPU time.
func buildStress(seed uint64, topoName string, traced bool) (*sim.Engine, *Scheduler, []*Task) {
	eng := sim.NewEngine()
	topo := machine.MustPreset(topoName)
	s := New(eng, topo, Defaults())
	if traced {
		s.SetTracer(nopHook{})
	}
	rng := sim.NewRNG(seed)
	ncpu := topo.NumCPUs()

	nBar := 2 + rng.Intn(3)
	bars := make([]*Barrier, 0, nBar)
	// Barrier participants must all exist, or the run deadlocks; count
	// subscribers first.
	type plan struct {
		policy   Policy
		rtprio   int
		affinity machine.CPUSet
		segs     int
		barrier  int // -1 = none
		spin     bool
		mem      bool
		sleep    sim.Time
	}
	nTasks := 4 + rng.Intn(8)
	plans := make([]plan, nTasks)
	barUsers := make([]int, nBar)
	for i := range plans {
		p := plan{
			segs:    1 + rng.Intn(5),
			barrier: -1,
			mem:     rng.Bool(0.3),
			sleep:   sim.Time(rng.Intn(3)) * sim.Millisecond,
		}
		if rng.Bool(0.2) {
			p.policy = PolicyFIFO
			p.rtprio = 1 + rng.Intn(90)
		}
		if rng.Bool(0.5) {
			p.affinity = machine.SetOf(rng.Intn(ncpu))
		}
		// Only fair tasks join barriers: a SCHED_FIFO task spinning at a
		// barrier would starve a pinned fair participant forever — real
		// RT priority inversion, deliberately out of scope here (the RT
		// throttle fail-safe exists for exactly that).
		if p.policy == PolicyOther && rng.Bool(0.4) {
			p.barrier = rng.Intn(nBar)
			p.spin = rng.Bool(0.5)
			barUsers[p.barrier]++
		}
		plans[i] = p
	}
	for b := 0; b < nBar; b++ {
		if barUsers[b] > 0 {
			bars = append(bars, NewBarrier(barUsers[b]))
		} else {
			bars = append(bars, nil)
		}
	}

	var tasks []*Task
	for i, p := range plans {
		var reqs []Request
		if p.sleep > 0 {
			reqs = append(reqs, ReqSleep(p.sleep))
		}
		for k := 0; k < p.segs; k++ {
			if p.mem {
				reqs = append(reqs, ReqMemory(float64(1+i%4)*1e6))
			} else {
				reqs = append(reqs, ReqCompute(float64(1+i%4)*1e6))
			}
			if k == 0 && p.barrier >= 0 {
				reqs = append(reqs, ReqBarrier(bars[p.barrier], p.spin))
			}
		}
		tasks = append(tasks, s.SpawnSeq(TaskSpec{
			Name:     "stress",
			Policy:   p.policy,
			RTPrio:   p.rtprio,
			Affinity: p.affinity,
			Kind:     KindWorkload,
		}, reqs...))
	}
	// Random irq storm.
	for k := 0; k < 20; k++ {
		at := sim.Time(rng.Intn(10)) * sim.Millisecond
		cpu := rng.Intn(ncpu)
		dur := sim.Time(1+rng.Intn(200)) * sim.Microsecond
		eng.At(at, func() { s.InjectIRQ(cpu, ClassIRQ, "stress-irq", dur) })
	}
	return eng, s, tasks
}

// stressDeadline bounds a stress world's simulated time, so a genuine
// scheduler deadlock fails a test instead of hanging it.
const stressDeadline = 10 * sim.Second

// TestStressKeyTraces pins the key trace of every stress world the stress
// tests run, plain and traced, as one digest per world.
func TestStressKeyTraces(t *testing.T) {
	var b strings.Builder
	for _, traced := range []bool{false, true} {
		for _, topoName := range []string{machine.TinyTest, machine.TinySMTTest} {
			for seed := uint64(0); seed < 40; seed++ {
				tr := keyTrace(func() (*sim.Engine, []*Scheduler, func() bool) {
					eng, s, tasks := buildStress(seed, topoName, traced)
					return eng, []*Scheduler{s}, func() bool {
						if eng.Now() > stressDeadline {
							return true
						}
						for _, t := range tasks {
							if !t.Done() {
								return false
							}
						}
						return true
					}
				})
				fmt.Fprintf(&b, "%s seed=%d traced=%v %x\n", topoName, seed, traced, sha256.Sum256([]byte(tr)))
			}
		}
	}
	checkKeyTrace(t, "stress.keytrace", b.String())
}
