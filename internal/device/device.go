// Package device assembles the simulated GPU of a testbed: a single
// compute engine that executes kernels one at a time in FIFO order (the way
// consecutive cuBLAS kernels serialize on a saturated device), the two
// directional copy engines provided by the link model, and a device-memory
// accountant.
//
// The device is purely an execution-timing substrate. Kernel durations are
// supplied by the caller (the cudart layer computes them from the
// kernelmodel ground truth); the device adds per-invocation multiplicative
// noise and serializes execution on the virtual clock. Functional payloads
// — closures that perform the actual BLAS arithmetic on backed buffers —
// run at kernel completion, so numerics and timing stay consistent.
package device

import (
	"errors"
	"fmt"
	"math/rand"

	"cocopelia/internal/link"
	"cocopelia/internal/machine"
	"cocopelia/internal/sim"
)

// KernelObserver receives every executed kernel interval for tracing.
type KernelObserver func(name string, start, end sim.Time)

// Buffer is a device-memory allocation. It only accounts for capacity;
// typed storage for functional runs lives in the cudart layer.
type Buffer struct {
	size  int64
	freed bool
}

// Size returns the allocation size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// kernelTask is one queued kernel execution. Tasks recycle through the
// device free list at completion, and the fire closure is created once per
// task object, so steady-state launches allocate nothing.
type kernelTask struct {
	dev      *Device
	name     string
	duration float64
	payload  func()
	done     func()
	start    sim.Time
	fire     func() // cached method value: completes this task
}

// Device is one simulated GPU attached to a sim.Engine.
type Device struct {
	eng  *sim.Engine
	tb   *machine.Testbed
	link *link.Link
	rng  *rand.Rand

	// queue is a FIFO ring over a reusable backing array: qHead indexes the
	// next task to run and the slice compacts to [:0] whenever it drains.
	queue      []*kernelTask
	qHead      int
	taskFree   []*kernelTask
	computing  bool
	busy       float64
	kernels    int64
	memUsed    int64
	memPeak    int64
	kernelObs  KernelObserver
	noiseSigma float64
}

// New creates a device for the testbed on the given engine. seed drives
// all measurement noise (kernel and transfer); the same seed reproduces a
// run exactly. Pass noiseless=true to disable noise entirely (useful for
// analytic unit tests).
func New(eng *sim.Engine, tb *machine.Testbed, seed int64, noiseless bool) *Device {
	sigma := tb.GPU.NoiseSigma
	var rng *rand.Rand
	if noiseless {
		sigma = 0
	} else {
		rng = rand.New(rand.NewSource(seed))
	}
	d := &Device{
		eng:        eng,
		tb:         tb,
		rng:        rng,
		noiseSigma: sigma,
	}
	// The link gets an independent stream derived from the same seed so
	// kernel and transfer noise do not interleave-order-depend.
	var linkRng *rand.Rand
	if !noiseless {
		linkRng = rand.New(rand.NewSource(seed ^ 0x5deece66d))
	}
	d.link = link.New(eng, tb, sigma, linkRng)
	return d
}

// Reset returns the device to its just-created state — empty compute
// queue, zeroed accounting, no observer — while keeping the kernel-task
// free list, and reseeds the noise streams (kernel and link) so the next
// run draws the exact sequences a freshly constructed device with that
// seed would. The engine is shared state and is NOT reset here; callers
// reusing a device across measurements reset the engine alongside it.
// Buffers allocated before the Reset are forgotten wholesale (the memory
// accounting restarts from zero), so holders must drop them. A noiseless
// device stays noiseless.
func (d *Device) Reset(seed int64) {
	if d.rng != nil {
		d.rng.Seed(seed)
	}
	for i := range d.queue {
		d.queue[i] = nil
	}
	d.queue = d.queue[:0]
	d.qHead = 0
	d.computing = false
	d.busy = 0
	d.kernels = 0
	d.memUsed, d.memPeak = 0, 0
	d.kernelObs = nil
	// The link's stream derives from the same seed exactly as in New.
	d.link.Reset(seed ^ 0x5deece66d)
}

// Engine returns the simulation engine driving this device.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Testbed returns the machine description of this device.
func (d *Device) Testbed() *machine.Testbed { return d.tb }

// Link returns the host-device interconnect.
func (d *Device) Link() *link.Link { return d.link }

// SetKernelObserver installs a trace observer for kernel intervals.
func (d *Device) SetKernelObserver(obs KernelObserver) { d.kernelObs = obs }

// ErrOutOfMemory is returned by Malloc when the device memory is exhausted.
var ErrOutOfMemory = errors.New("device: out of memory")

// Malloc reserves bytes of device memory.
func (d *Device) Malloc(bytes int64) (*Buffer, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("device: negative allocation %d", bytes)
	}
	if d.memUsed+bytes > d.tb.GPU.MemBytes {
		return nil, fmt.Errorf("%w: want %d, used %d of %d",
			ErrOutOfMemory, bytes, d.memUsed, d.tb.GPU.MemBytes)
	}
	d.memUsed += bytes
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	return &Buffer{size: bytes}, nil
}

// Free releases a device allocation. Double frees are rejected.
func (d *Device) Free(b *Buffer) error {
	if b == nil {
		return errors.New("device: free of nil buffer")
	}
	if b.freed {
		return errors.New("device: double free")
	}
	b.freed = true
	d.memUsed -= b.size
	return nil
}

// MemUsed returns the bytes currently allocated.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemPeak returns the high-water mark of allocated bytes.
func (d *Device) MemPeak() int64 { return d.memPeak }

// noisy perturbs a duration with the device's multiplicative noise.
func (d *Device) noisy(duration float64) float64 {
	if d.rng == nil || d.noiseSigma == 0 {
		return duration
	}
	f := 1 + d.noiseSigma*d.rng.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return duration * f
}

// allocTask returns a recycled (or fresh) kernel task.
func (d *Device) allocTask() *kernelTask {
	if n := len(d.taskFree); n > 0 {
		t := d.taskFree[n-1]
		d.taskFree[n-1] = nil
		d.taskFree = d.taskFree[:n-1]
		return t
	}
	t := &kernelTask{dev: d}
	t.fire = t.complete
	return t
}

// LaunchKernel enqueues a kernel with the given base duration on the
// compute engine. payload (optional) performs the functional arithmetic
// and runs at completion time, before onDone (optional) is notified.
// Durations must be non-negative.
//
//cocolint:hotpath
func (d *Device) LaunchKernel(name string, duration float64, payload, onDone func()) {
	if duration < 0 {
		panic(fmt.Sprintf("device: negative kernel duration %g", duration))
	}
	t := d.allocTask()
	t.name, t.duration, t.payload, t.done = name, duration, payload, onDone
	//lint:ignore hotpath queue compacts to length zero whenever the engine drains it; the backing array grows only to the deepest backlog
	d.queue = append(d.queue, t)
	if !d.computing {
		d.runNext()
	}
}

// runNext pops the compute queue and executes its head.
func (d *Device) runNext() {
	if d.computing {
		return
	}
	if d.qHead == len(d.queue) {
		if d.qHead > 0 {
			d.queue = d.queue[:0]
			d.qHead = 0
		}
		return
	}
	t := d.queue[d.qHead]
	d.queue[d.qHead] = nil
	d.qHead++
	if d.qHead == len(d.queue) {
		d.queue = d.queue[:0]
		d.qHead = 0
	}
	d.computing = true
	t.start = d.eng.Now()
	d.eng.After(d.noisy(t.duration), t.fire)
}

// complete finishes an executed kernel: accounting and the trace observer
// first, then the task recycles (its callbacks are saved locally, so a
// payload or completion callback that launches more kernels may reuse the
// object immediately), the next kernel starts, and the completion callback
// runs last — so a callback that enqueues more work observes a busy
// engine, matching hardware queues.
func (t *kernelTask) complete() {
	d := t.dev
	d.computing = false
	d.busy += d.eng.Now() - t.start
	d.kernels++
	if d.kernelObs != nil {
		d.kernelObs(t.name, t.start, d.eng.Now())
	}
	payload, done := t.payload, t.done
	t.name, t.payload, t.done = "", nil, nil
	d.taskFree = append(d.taskFree, t)
	if payload != nil {
		payload()
	}
	d.runNext()
	if done != nil {
		done()
	}
}

// ComputeStats describes the compute engine's accumulated activity.
type ComputeStats struct {
	BusySeconds float64
	Kernels     int64
}

// ComputeStats returns the accumulated compute activity.
func (d *Device) ComputeStats() ComputeStats {
	return ComputeStats{BusySeconds: d.busy, Kernels: d.kernels}
}
