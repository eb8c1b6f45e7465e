package cpusched

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Simulated I/O devices: the blocking counterpart of the CPU-bound fluid
// model. A task that issues BlockOn(device, bytes) leaves its CPU
// (StateBlockedIO), joins the device's FIFO request queue, and is woken by
// the completion interrupt the device raises when its deterministic service
// time elapses. The completion runs through the ordinary ClassIRQ path —
// it pauses whatever occupies the interrupted CPU, queues behind other
// pending interrupts (including injected IRQ noise), and only at the end of
// the handler does the blocked task re-enter the run queues via the normal
// wake-up placement. That queuing is precisely what makes I/O-bound
// workloads sensitive to IRQ noise: injected interrupts delay completion
// handlers, and every delayed handler delays a wakeup.
//
// Determinism: the device is a serial server — one request in service at a
// time, strict FIFO admission — whose service time is a pure function of
// the request (Latency + bytes/BytesPerNs). Completion order therefore
// depends only on submission order, which the single-threaded engine makes
// deterministic, so runs remain byte-identical across batching, obs
// attachment, and executor parallelism.

// DeviceSpec configures a simulated I/O device.
type DeviceSpec struct {
	// Name identifies the device ("disk0", "net0"); BlockOn requests
	// resolve devices by name through Scheduler.Device.
	Name string
	// Latency is the fixed per-request service latency (request setup,
	// seek, flush barrier), charged before any byte streams.
	Latency sim.Time
	// BytesPerNs is the streaming bandwidth of the device; requests add
	// ceil(bytes/BytesPerNs) on top of Latency. Zero means latency-only
	// (pure synchronization devices, e.g. an fsync barrier).
	BytesPerNs float64
	// IRQCPU is the logical CPU completion interrupts are delivered to —
	// the simulated equivalent of the device's IRQ affinity. Defaults to
	// CPU 0, the classic unmanaged-affinity placement.
	IRQCPU int
	// IRQDur is the completion-handler duration in interrupt context.
	// Defaults to 1µs when zero.
	IRQDur sim.Time
	// Source labels completion interrupts in traces and obs spans;
	// defaults to "irq/<Name>".
	Source string
}

// ioReq is one queued device request. The task pointer is nilled when the
// requester is killed mid-flight; service still completes (the "hardware"
// does not know), but no wakeup is delivered.
type ioReq struct {
	t     *Task
	bytes float64
}

// Device is a deterministic serial I/O device with a FIFO request queue.
type Device struct {
	s    *Scheduler
	spec DeviceSpec

	// q/head form the request queue in irqQ style: appended at the tail,
	// consumed via head so the backing array survives each burst. While
	// busy, q[head] is the request in service.
	q    []ioReq
	head int
	busy bool
	// serviceFn is the service-completion callback, bound once at
	// construction so starting a request does not allocate.
	serviceFn func()

	// Requests counts completed requests; BusyTime accumulates service
	// time (both diagnostics, read by nothing that schedules).
	Requests uint64
	BusyTime sim.Time
}

// AddDevice registers a device on the scheduler, replacing any previous
// device with the same name. Devices are per-rep state: Scheduler.Reset
// discards all registrations, so reused worlds re-register in every rep
// body exactly as they re-spawn tasks.
func (s *Scheduler) AddDevice(spec DeviceSpec) *Device {
	if spec.Name == "" {
		panic("cpusched: AddDevice with empty name")
	}
	if spec.IRQCPU < 0 || spec.IRQCPU >= len(s.cpus) {
		panic(fmt.Sprintf("cpusched: device %q IRQ CPU %d out of range", spec.Name, spec.IRQCPU))
	}
	if spec.Latency < 0 || spec.BytesPerNs < 0 {
		panic(fmt.Sprintf("cpusched: device %q has negative service parameters", spec.Name))
	}
	if spec.Source == "" {
		spec.Source = "irq/" + spec.Name
	}
	if spec.IRQDur <= 0 {
		spec.IRQDur = 1 * sim.Microsecond
	}
	d := &Device{s: s, spec: spec}
	d.serviceFn = func() { d.serviceDone() }
	if s.devices == nil {
		s.devices = make(map[string]*Device)
	}
	s.devices[spec.Name] = d
	return d
}

// Device returns the registered device with the given name, nil if none.
func (s *Scheduler) Device(name string) *Device { return s.devices[name] }

// Name returns the device name.
func (d *Device) Name() string { return d.spec.Name }

// serviceTime is the deterministic service-time model: fixed latency plus
// bytes over bandwidth.
func (d *Device) serviceTime(bytes float64) sim.Time {
	t := d.spec.Latency
	if bytes > 0 && d.spec.BytesPerNs > 0 {
		t += sim.Time(math.Ceil(bytes / d.spec.BytesPerNs))
	}
	return t
}

// submit enqueues a blocked task's request and starts service if the device
// is idle. Called from processRequests after the task left its CPU.
func (d *Device) submit(t *Task, bytes float64) {
	t.dev = d
	d.q = append(d.q, ioReq{t: t, bytes: bytes})
	if !d.busy {
		d.startNext()
	}
}

// startNext begins service of the queue head, or rewinds the drained queue.
func (d *Device) startNext() {
	if d.head >= len(d.q) {
		// Drained: rewind to the start of the backing array so the next
		// burst appends without reallocating.
		d.q = d.q[:0]
		d.head = 0
		d.busy = false
		return
	}
	d.busy = true
	d.s.eng.After(d.serviceTime(d.q[d.head].bytes), d.serviceFn)
}

// serviceDone fires when the in-service request's service time elapses: it
// raises the completion interrupt (which wakes the requester at handler
// end) and starts the next queued request.
func (d *Device) serviceDone() {
	r := d.q[d.head]
	d.q[d.head].t = nil
	d.head++
	d.Requests++
	d.BusyTime += d.serviceTime(r.bytes)
	if r.t != nil {
		d.s.injectDeviceIRQ(d, r.t)
	}
	d.startNext()
}

// drop forgets a killed task's pending request. The request itself still
// occupies its queue slot (service order of the others is unchanged, as on
// real hardware where a submitted command cannot be unsubmitted); only the
// wakeup is suppressed.
func (d *Device) drop(t *Task) {
	for i := d.head; i < len(d.q); i++ {
		if d.q[i].t == t {
			d.q[i].t = nil
			return
		}
	}
}

// injectDeviceIRQ delivers a device-completion interrupt carrying the task
// to wake when the handler finishes. It mirrors InjectIRQ's queue-or-start
// logic with the extra wake payload.
func (s *Scheduler) injectDeviceIRQ(d *Device, t *Task) {
	c := s.cpus[d.spec.IRQCPU]
	if c.inIRQ {
		c.irqQ = append(c.irqQ, pendingIRQ{class: ClassIRQ, source: d.spec.Source, dur: d.spec.IRQDur, wake: t})
		return
	}
	s.startIRQ(c, ClassIRQ, d.spec.Source, d.spec.IRQDur, t)
}

// wakeFromIO resumes a task whose device request completed: the io-wait obs
// span closes and the task re-enters the run queues through the ordinary
// wake-up placement. Runs at the end of the completion interrupt handler.
func (s *Scheduler) wakeFromIO(t *Task) {
	if t.state != StateBlockedIO {
		return // killed while blocked; nothing to wake
	}
	t.dev = nil
	if s.obs != nil {
		// The wait span runs from submission to the end of the completion
		// handler: device queueing + service + IRQ delivery delay. Its
		// tail is what IRQ noise stretches.
		s.obs.Span(t.cpu, "io-wait", "io", t.Name, t.ioArrive, s.eng.Now())
	}
	s.wake(t)
}
