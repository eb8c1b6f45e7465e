package cpusched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// FuzzBlockOnForkDeterminism drives the block/wake machinery with arbitrary
// opcode sequences and checks the tentpole invariant the golden fixtures pin
// for real workloads: a reset scheduler replays any program — however
// hostile its interleaving of BlockOn, compute, memory, and sleep across
// policies — with byte-identical outcomes to a fresh engine. The fuzz bytes
// decode into up to four tasks (fair, FIFO, or deadline, optionally pinned)
// issuing up to six bounded requests each against two devices with
// different latencies and IRQ CPUs, so completions, CBS throttling, and
// cross-CPU wakeups interleave freely.

// fuzzProg is one decoded task: its spec plus a device-index-tagged request
// list (device pointers are per-rep, resolved inside each run).
type fuzzProg struct {
	spec TaskSpec
	ops  []fuzzOp
}

type fuzzOp struct {
	kind byte // 0 compute, 1 blockon, 2 sleep, 3 memory
	dev  int  // blockon only
	arg  float64
}

// decodeBlockOnProgs turns fuzz bytes into a bounded program set. Every
// byte string decodes to something valid (or empty); demands are clamped so
// any input terminates in well under 10 simulated milliseconds.
func decodeBlockOnProgs(data []byte) []fuzzProg {
	var progs []fuzzProg
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	for len(progs) < 4 {
		pol, ok := next()
		if !ok {
			break
		}
		aff, ok := next()
		if !ok {
			break
		}
		spec := TaskSpec{Name: fmt.Sprintf("fz%d", len(progs))}
		if aff&0x80 == 0 {
			spec.Affinity = machine.SetOf(int(aff) % 4)
		}
		switch pol % 3 {
		case 1:
			spec.Policy = PolicyFIFO
			spec.RTPrio = 10 + int(pol)%50
		case 2:
			spec.Policy = PolicyDeadline
			p1, _ := next()
			p2, _ := next()
			spec.DLRuntime = sim.Time(1+int(p1)%100) * sim.Microsecond
			spec.DLPeriod = spec.DLRuntime * sim.Time(1+int(p2)%8)
		}
		nOps, ok := next()
		if !ok {
			break
		}
		var ops []fuzzOp
		for i := 0; i < 1+int(nOps)%6; i++ {
			op, ok1 := next()
			arg, ok2 := next()
			if !ok1 || !ok2 {
				break
			}
			switch op % 4 {
			case 0:
				ops = append(ops, fuzzOp{kind: 0, arg: float64(1+arg) * 1000})
			case 1:
				ops = append(ops, fuzzOp{kind: 1, dev: int(arg) % 2, arg: float64(arg) * 512})
			case 2:
				ops = append(ops, fuzzOp{kind: 2, arg: float64(1+arg) * float64(10*sim.Microsecond)})
			case 3:
				ops = append(ops, fuzzOp{kind: 3, arg: float64(1+arg) * 4096})
			}
		}
		if len(ops) == 0 {
			break
		}
		progs = append(progs, fuzzProg{spec: spec, ops: ops})
	}
	return progs
}

// runBlockOnProgs registers the two devices (per-rep state: Reset discards
// them), spawns the decoded programs, runs to completion, and fingerprints
// every observable outcome a golden record would: finish time, dispatch
// count, per-task completion times and CPU time, per-device counters.
func runBlockOnProgs(s *Scheduler, progs []fuzzProg) string {
	devs := [2]*Device{
		s.AddDevice(DeviceSpec{Name: "fz-nic", Latency: 2 * sim.Microsecond,
			BytesPerNs: 10, IRQCPU: 0, IRQDur: 500}),
		s.AddDevice(DeviceSpec{Name: "fz-disk", Latency: 30 * sim.Microsecond,
			BytesPerNs: 1, IRQCPU: 1, IRQDur: 2 * sim.Microsecond}),
	}
	tasks := make([]*Task, len(progs))
	doneAt := make([]sim.Time, len(progs))
	for i, p := range progs {
		reqs := make([]Request, len(p.ops))
		for j, op := range p.ops {
			switch op.kind {
			case 0:
				reqs[j] = ReqCompute(op.arg)
			case 1:
				reqs[j] = ReqBlockOn(devs[op.dev], op.arg)
			case 2:
				reqs[j] = ReqSleepUntil(sim.Time(op.arg))
			case 3:
				reqs[j] = ReqMemory(op.arg)
			}
		}
		i := i
		tasks[i] = s.SpawnSeq(p.spec, reqs...)
		tasks[i].OnDone(func() { doneAt[i] = s.eng.Now() })
	}
	s.eng.RunWhile(func() bool {
		for _, t := range tasks {
			if !t.Done() {
				return true
			}
		}
		return false
	})
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d switches=%d", s.eng.Now(), s.ContextSwitches)
	for i, t := range tasks {
		fmt.Fprintf(&b, " t%d=%d/%d", i, doneAt[i], t.CPUTime)
	}
	for _, d := range devs {
		fmt.Fprintf(&b, " %s=%d/%d", d.Name(), d.Requests, d.BusyTime)
	}
	return b.String()
}

func FuzzBlockOnForkDeterminism(f *testing.F) {
	// Pinned corpus: the interleavings the unit tests cover by hand.
	f.Add([]byte{}) // no program
	// One deadline task alternating compute and both devices.
	f.Add([]byte{2, 0, 40, 3, 5, 0, 100, 1, 1, 0, 200, 1, 0, 1, 3})
	// Deadline and fair sharing CPU 0, fair blocking on the slow disk.
	f.Add([]byte{2, 0, 10, 2, 3, 0, 255, 1, 1, 0, 80, 0, 0, 2, 1, 3, 3, 120})
	// FIFO preempting a sleeper, deadline waking cross-CPU via the NIC IRQ.
	f.Add([]byte{1, 1, 2, 2, 60, 0, 200, 0, 0, 40, 2, 2, 1, 50, 2, 5, 1, 2})
	// Unpinned tasks, memory traffic, repeated zero-byte (latency-only) I/O.
	f.Add([]byte{0, 128, 4, 3, 33, 1, 0, 1, 0, 2, 129, 77, 1, 1, 4, 1, 0, 1, 4})

	topo := machine.MustPreset(machine.TinyTest)
	f.Fuzz(func(t *testing.T, data []byte) {
		progs := decodeBlockOnProgs(data)
		if len(progs) == 0 {
			return
		}
		fresh := New(sim.NewEngine(), topo, noBalance())
		want := runBlockOnProgs(fresh, progs)
		fresh.Shutdown()

		eng := sim.NewEngine()
		s := New(eng, topo, noBalance())
		for round := 0; round < 2; round++ {
			got := runBlockOnProgs(s, progs)
			if got != want {
				t.Fatalf("reset round %d diverged from fresh engine:\nfresh: %s\nreset: %s",
					round, want, got)
			}
			s.Shutdown()
			s.Reset()
			eng.Reset()
		}
	})
}
