// Package device assembles the simulated GPU of a testbed: a single
// compute engine that executes kernels one at a time in FIFO order (the way
// consecutive cuBLAS kernels serialize on a saturated device), the two
// directional copy engines provided by the link model, and a device-memory
// accountant.
//
// The device is purely an execution-timing substrate. Kernel durations are
// supplied by the caller (plan replays compute them from the kernelmodel
// ground truth); the device adds per-invocation multiplicative noise and
// serializes execution on the virtual clock. It notifies each kernel's
// completion through a handle. It does no arithmetic: the cudart layer runs
// backed kernels' functional work as jobs after the simulation drains.
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
// device free list at completion, and completion reaches the launcher
// through a handle, so a task holds no callback of its own and
// steady-state launches allocate nothing.
type kernelTask struct {
	name     string
	duration float64
	done     sim.Handle
}

// Device is one simulated GPU attached to a sim.Engine.
type Device struct {
	eng  *sim.Engine
	tb   *machine.Testbed
	link *link.Link
	rng  *rand.Rand

	// queue is a FIFO over a reusable backing array: qHead indexes the next
	// task to run. The slice compacts to [:0] whenever it drains, and an
	// append that finds the array full slides the waiting tasks to the front
	// once at least half of it has run, so the array grows with the
	// backlog, not with the number of kernels launched.
	queue    []*kernelTask
	qHead    int
	taskFree []*kernelTask
	// running is the executing kernel (nil when idle) and started its start
	// time. finishFn, the engine callback that completes it, is created once
	// per device: one kernel runs at a time.
	running    *kernelTask
	started    sim.Time
	finishFn   func()
	busy       float64
	kernels    int64
	memUsed    int64
	memPeak    int64
	kernelObs  KernelObserver
	noiseSigma float64
}

// New creates a device for the testbed on the given engine. seed drives
// all measurement noise (kernel and transfer); the same seed reproduces a
// run exactly. Both noise streams draw exactly what math/rand's
// rand.NewSource would (noiseSource), but seed in O(1), so a device is cheap
// to create and to Reset. Pass noiseless=true to disable noise entirely
// (useful for analytic unit tests).
func New(eng *sim.Engine, tb *machine.Testbed, seed int64, noiseless bool) *Device {
	sigma := tb.GPU.NoiseSigma
	var rng *rand.Rand
	if noiseless {
		sigma = 0
	} else {
		rng = rand.New(newNoiseSource(seed))
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
		linkRng = rand.New(newNoiseSource(seed ^ 0x5deece66d))
	}
	d.link = link.New(eng, tb, sigma, linkRng)
	d.finishFn = d.finish
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
	clear(d.queue)
	d.queue = d.queue[:0]
	d.qHead = 0
	d.running = nil
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
	return &kernelTask{}
}

// LaunchKernel enqueues a kernel with the given base duration on the
// compute engine; done (optional) is notified when it completes.
// Durations must be non-negative.
//
//cocolint:hotpath
func (d *Device) LaunchKernel(name string, duration float64, done sim.Handle) {
	if duration < 0 {
		panic(fmt.Sprintf("device: negative kernel duration %g", duration))
	}
	if len(d.queue) == cap(d.queue) && 2*d.qHead >= len(d.queue) {
		n := copy(d.queue, d.queue[d.qHead:])
		clear(d.queue[n:])
		d.queue, d.qHead = d.queue[:n], 0
	}
	t := d.allocTask()
	t.name, t.duration, t.done = name, duration, done
	//lint:ignore hotpath queue compacts whenever it drains or half of it has run; the backing array grows only to twice the deepest backlog
	d.queue = append(d.queue, t)
	if d.running == nil {
		d.runNext()
	}
}

// runNext pops the compute queue and executes its head.
func (d *Device) runNext() {
	if d.running != nil {
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
	d.running = t
	d.started = d.eng.Now()
	d.eng.After(d.noisy(t.duration), d.finishFn)
}

// finish completes the running kernel: accounting and the trace observer
// first, then the task recycles (its handle is saved locally, so a
// launcher that launches more kernels may reuse the object at once), the
// next kernel starts, and the completion handle is notified last — so a
// launcher that enqueues more work observes a busy engine, matching
// hardware queues.
func (d *Device) finish() {
	t := d.running
	d.running = nil
	d.busy += d.eng.Now() - d.started
	d.kernels++
	if d.kernelObs != nil {
		d.kernelObs(t.name, d.started, d.eng.Now())
	}
	done := t.done
	*t = kernelTask{}
	d.taskFree = append(d.taskFree, t)
	d.runNext()
	done.Fire()
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
