// Package parmodel defines the interface between workload cost models and
// the parallel runtime models (omprt, syclrt): a workload is a function of
// a Model, the runtimes record its calls as a phase list (Record), and
// execute the phases as parallel loops of costed work units on the
// simulated machine. The two runtime implementations differ exactly where
// the paper says OpenMP and SYCL differ: work distribution policy,
// synchronization style, and fixed runtime overheads.
package parmodel

// Cost is the machine demand of one work unit: CPU cycles, bytes of memory
// traffic, and optionally a blocking I/O request. Work units are coarse by
// design (a block of iterations, a work-group, one service request),
// keeping the simulation event count tractable.
type Cost struct {
	Cycles float64
	Bytes  float64
	// IOBytes, when positive, blocks the executing thread on the device
	// named by IODev after the unit's compute and memory phases complete
	// (cpusched BlockOn). The device must be registered on the scheduler
	// before the workload runs (workloads declare theirs via the
	// workloads.IOWorkload interface). Zero means a CPU-bound unit.
	IOBytes float64
	IODev   string
}

// Add returns the sum of two costs. I/O requests to the same device merge
// by volume; when only one side names a device, that name wins (work units
// aggregated into one chunk issue a single combined request, mirroring
// request coalescing in a real block layer).
func (c Cost) Add(o Cost) Cost {
	dev := c.IODev
	if dev == "" {
		dev = o.IODev
	}
	return Cost{c.Cycles + o.Cycles, c.Bytes + o.Bytes, c.IOBytes + o.IOBytes, dev}
}

// Scale returns the cost with CPU and memory demands multiplied by f. I/O
// volume is data, not work: runtime efficiency factors (omprt/syclrt
// CostFactor) change how fast a unit computes, not how many bytes it must
// move through a device, so IOBytes is deliberately left unscaled.
func (c Cost) Scale(f float64) Cost {
	return Cost{c.Cycles * f, c.Bytes * f, c.IOBytes, c.IODev}
}

// Model is the interface a workload body describes its work against. A
// runtime's Start does not execute the body on the simulated machine: it
// records the body once (Record) into a fixed phase list that the
// master/host thread then executes. The model has no clock, so a body can
// observe only Threads() and Name(); everything else it does must be a
// fixed sequence of ParallelFor/Master* calls. Cost functions are called
// later, while the phases run.
type Model interface {
	// ParallelFor executes n work units, unit i costing cost(i), across
	// the team, then synchronizes (implicit end-of-region barrier /
	// kernel completion wait).
	ParallelFor(n int, cost func(i int) Cost)
	// MasterCompute runs serial compute on the master/host thread.
	MasterCompute(cycles float64)
	// MasterMemory streams bytes on the master/host thread.
	MasterMemory(bytes float64)
	// MasterBlockOn blocks the master/host thread on a request of the
	// given volume to the named device (fsync, synchronous read). Zero
	// bytes still blocks for the device's latency — an fsync barrier. The
	// device must be registered before the workload runs; referencing an
	// unregistered name panics.
	MasterBlockOn(dev string, bytes float64)
	// Threads returns the team/worker-pool size.
	Threads() int
	// Name identifies the runtime ("omp" or "sycl").
	Name() string
}

// Body is a workload expressed against a runtime model.
type Body func(Model)

// PhaseKind identifies the Model call a recorded Phase stands for.
type PhaseKind int

const (
	PhaseParallelFor PhaseKind = iota // Model.ParallelFor
	PhaseCompute                      // Model.MasterCompute
	PhaseMemory                       // Model.MasterMemory
	PhaseBlockOn                      // Model.MasterBlockOn
)

// Phase is one recorded Model call.
type Phase struct {
	Kind PhaseKind
	// N and Cost are the ParallelFor trip count and unit cost.
	N    int
	Cost func(i int) Cost
	// Amount is the MasterCompute cycles, MasterMemory bytes, or
	// MasterBlockOn bytes; Dev is the MasterBlockOn device.
	Amount float64
	Dev    string
}

// Record runs body against a recording Model that reports the given
// thread count and runtime name, and returns the calls it made in order.
// It panics on a negative ParallelFor trip count.
func Record(body Body, threads int, name string) []Phase {
	r := &recorder{threads: threads, name: name}
	body(r)
	return r.phases
}

type recorder struct {
	threads int
	name    string
	phases  []Phase
}

func (r *recorder) ParallelFor(n int, cost func(int) Cost) {
	if n < 0 {
		panic("parmodel: negative ParallelFor trip count")
	}
	r.phases = append(r.phases, Phase{Kind: PhaseParallelFor, N: n, Cost: cost})
}

func (r *recorder) MasterCompute(cycles float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseCompute, Amount: cycles})
}

func (r *recorder) MasterMemory(bytes float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseMemory, Amount: bytes})
}

func (r *recorder) MasterBlockOn(dev string, bytes float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseBlockOn, Amount: bytes, Dev: dev})
}

func (r *recorder) Threads() int { return r.threads }
func (r *recorder) Name() string { return r.name }
