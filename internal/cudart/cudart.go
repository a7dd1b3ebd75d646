// Package cudart provides the CUDA-runtime-like programming model that all
// GPU BLAS libraries in this repository are written against: in-order
// streams, events, asynchronous host-device copies and asynchronous kernel
// launches, on top of the discrete-event device simulator.
//
// Semantics mirror the CUDA runtime closely:
//
//   - operations submitted to one stream execute in submission order;
//   - operations in different streams may overlap, subject to engine
//     availability (one h2d copy engine, one d2h copy engine, one compute
//     engine);
//   - Stream.WaitEvent orders all subsequently submitted work in the
//     stream after the event;
//   - Stream.Record returns an event that completes when all work
//     submitted to the stream so far has completed.
//
// Every operation optionally carries a functional payload that performs the
// real arithmetic/data movement on backed buffers, so schedulers are
// verified numerically and timed by the same code path.
//
// The launch path is allocation-free in steady state: per-launch op objects
// and their completion events come from runtime-owned free lists, operand
// descriptions live in fields of the op (dispatched by kind) instead of
// per-call closures, and the dependency-edge slices reuse their backing
// arrays. Ops recycle as soon as their hardware work completes; events
// recycle at the next successful Sync, which is also when every stream's
// tail is reset to the shared pre-completed event.
package cudart

import (
	"errors"
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

// Event is a completion marker, as in CUDA. The zero value is not useful;
// events come from Stream.Record or are pre-completed via DoneEvent.
//
// Lifetime: an *Event returned by this package is valid until the
// Runtime.Sync call that drains it returns successfully; at that point the
// runtime recycles the object for later launches and holders must drop
// their references (every scheduler in this repository consumes its events
// within one enqueue+Sync cycle).
// Nearly every event has exactly one waiter — the next op chained on a
// stream tail — so the first waiter lives in an inline slot and only
// fan-outs of two or more touch the overflow slice. Steady-state replays
// therefore allocate no waiter arrays at all.
type Event struct {
	done    bool
	w0      *op   // first registered waiter (fires before the overflow)
	waiters []*op // second and later waiters, in registration order
}

// doneEvent is the shared pre-completed event. It is immutable in effect:
// fire is a no-op on a done event and addWaiter never appends to one.
var doneEvent = &Event{done: true}

// DoneEvent returns an already-completed event.
func DoneEvent() *Event { return doneEvent }

// Done reports whether the event has completed.
func (e *Event) Done() bool { return e.done }

// opKind selects what an op does when its dependencies are satisfied. The
// operands live in fields of the op itself, so enqueueing an operation
// allocates no per-call closures.
type opKind uint8

const (
	opCallback opKind = iota // host function, zero duration
	opKernel                 // compute-engine kernel
	opH2D                    // 1-D host-to-device copy
	opD2H                    // 1-D device-to-host copy
	opSet2D                  // 2-D host-to-device submatrix copy
	opGet2D                  // 2-D device-to-host submatrix copy
)

// op is one scheduled stream operation. Ops are recycled through the
// runtime free list the moment their hardware work completes.
//
// The layout is tuned for the firing path, which touches hundreds of
// thousands of scattered op objects per replay: the fields depSatisfied,
// launch and finish read (pointers first, then the packed small scalars)
// sit together at the front, and the functional operands of backed
// transfers live behind the host pointer in a separate pooled hostWindow,
// keeping the op itself in the 96-byte malloc class. Timing-only
// transfers — the overwhelming majority in paper-scale sweeps — never
// allocate a window, so the replay working set stays dense.
type op struct {
	rt       *Runtime
	complete *Event

	// depFn and hwDone are method values created once per op object; they
	// survive free-list recycling, so the steady-state launch path pays no
	// closure allocations.
	depFn  func()
	hwDone func()

	payload func()
	buf     *DevBuffer
	host    *hostWindow // functional transfer operands; nil when timing-only

	// deps is the outstanding-dependency count (valid between enqueue and
	// launch).
	deps int32
	kind opKind
	dir  machine.LinkDir

	// kernel and callback operands.
	duration float64
	name     string

	bytes int64 // transfer volume
}

// hostWindow carries the host-side operands of a functional (backed)
// transfer: the host slices plus the 1-D or 2-D window geometry. It exists
// only while its op is in flight and recycles through the runtime's window
// free list.
type hostWindow struct {
	f64        []float64
	f32        []float32
	off        int64
	elems      int64
	rows, cols int32
	ldh, ldd   int32
}

//cocolint:hotpath
func (o *op) depSatisfied() {
	o.deps--
	if o.deps == 0 {
		o.rt.launch(o)
	}
}

// hwComplete is the hardware-completion callback: it performs the data
// movement of transfer ops (kernel payloads run inside the device model)
// and then finishes the op.
//
//cocolint:hotpath
func (o *op) hwComplete() {
	switch o.kind {
	case opH2D, opD2H, opSet2D, opGet2D:
		o.runCopy()
	}
	o.finish()
}

// finish retires a completed op: it is recycled before its completion event
// fires, so waiters launched by the event can reuse the object immediately.
//
//cocolint:hotpath
func (o *op) finish() {
	rt := o.rt
	rt.outstanding--
	ev := o.complete
	rt.recycleOp(o)
	fire(ev)
}

// runCopy performs the functional data movement of a transfer op on backed
// buffers. Timing-only transfers carry no host window and return
// immediately: there is nothing to move, and paper-scale sweeps issue
// millions of such transfers.
func (o *op) runCopy() {
	w := o.host
	if w == nil {
		return
	}
	b := o.buf
	switch o.kind {
	case opH2D:
		switch {
		case b.f64 != nil && w.f64 != nil:
			copy(b.f64[w.off:w.off+w.elems], w.f64[:w.elems])
		case b.f32 != nil && w.f32 != nil:
			copy(b.f32[w.off:w.off+w.elems], w.f32[:w.elems])
		}
	case opD2H:
		switch {
		case b.f64 != nil && w.f64 != nil:
			copy(w.f64[:w.elems], b.f64[w.off:w.off+w.elems])
		case b.f32 != nil && w.f32 != nil:
			copy(w.f32[:w.elems], b.f32[w.off:w.off+w.elems])
		}
	case opSet2D:
		rows := int(w.rows)
		for j := 0; j < int(w.cols); j++ {
			d := w.off + int64(j)*int64(w.ldd)
			h := j * int(w.ldh)
			switch {
			case b.f64 != nil && w.f64 != nil:
				copy(b.f64[d:d+int64(rows)], w.f64[h:h+rows])
			case b.f32 != nil && w.f32 != nil:
				copy(b.f32[d:d+int64(rows)], w.f32[h:h+rows])
			}
		}
	case opGet2D:
		rows := int(w.rows)
		for j := 0; j < int(w.cols); j++ {
			d := w.off + int64(j)*int64(w.ldd)
			h := j * int(w.ldh)
			switch {
			case b.f64 != nil && w.f64 != nil:
				copy(w.f64[h:h+rows], b.f64[d:d+int64(rows)])
			case b.f32 != nil && w.f32 != nil:
				copy(w.f32[h:h+rows], b.f32[d:d+int64(rows)])
			}
		}
	}
}

// Runtime owns the streams and buffers of one simulated process.
type Runtime struct {
	dev         *device.Device
	outstanding int
	streams     int
	streamList  []*Stream
	payloadPool *parallel.Pool
	// payloadPolicy selects the CPU kernel numerics for backed payloads:
	// the default blas.KernelExact keeps the bitwise oracle contract;
	// blas.KernelFMA opts into the fused (ULP-bounded) micro-kernels.
	payloadPolicy blas.KernelPolicy
	// payloadErr is the first functional-payload error since the last
	// Sync (a non-SPD or singular tile, or bad payload geometry); Sync
	// returns and clears it.
	payloadErr error

	// opFree recycles op objects the moment their hardware work completes;
	// evFree recycles completion events at Sync, with evLive tracking the
	// events handed out since the last Sync. Fresh events are carved from
	// evSlab blocks rather than allocated individually: a replay keeps up to
	// ~10^5 events live at once, and contiguous slabs make the fire/wait
	// paths' event touches neighbours instead of scattered heap objects.
	// Fresh ops are carved from contiguous opSlab blocks, like events: the
	// dependency-firing path chases op pointers hundreds of thousands of
	// times per replay, and slab-packed neighbours keep it in cache where
	// individually allocated ops scatter across the heap.
	opFree  []*op
	opSlab  []op
	evFree  []*Event
	evLive  []*Event
	evSlab  []Event
	winFree []*hostWindow

	// kt memoizes the pure kernel-model duration lookups: a tiled sweep
	// launches thousands of identically-shaped kernels, and the model's
	// pow/cbrt evaluation dominates an otherwise trivial launch path.
	kt kernelmodel.Memo
}

// kernelTime returns the memoized duration of a kernel launch on the
// runtime's GPU model.
func (rt *Runtime) kernelTime(sh kernelmodel.Shape) float64 {
	return rt.kt.Time(&rt.dev.Testbed().GPU, sh)
}

// New creates a runtime bound to a device.
func New(dev *device.Device) *Runtime { return &Runtime{dev: dev} }

// Reset rebinds the runtime to a fresh device while keeping its warmed
// object pools: the op and event free lists, and — when the new device runs
// the same testbed — the memoized kernel durations. Streams of the previous
// run are dropped. Operations still pending (after a failed Sync) are
// abandoned exactly as discarding the runtime would abandon them, with
// their live events recycled. After Reset the runtime behaves identically
// to New(dev); only allocation behaviour differs.
func (rt *Runtime) Reset(dev *device.Device) {
	rt.dev = dev
	rt.outstanding = 0
	rt.streams = 0
	rt.payloadPool = nil
	rt.payloadPolicy = blas.KernelExact
	rt.payloadErr = nil
	for i := range rt.streamList {
		rt.streamList[i] = nil
	}
	rt.streamList = rt.streamList[:0]
	for i, e := range rt.evLive {
		rt.evLive[i] = nil
		e.done = false
		e.w0 = nil
		e.waiters = e.waiters[:0]
		rt.evFree = append(rt.evFree, e)
	}
	rt.evLive = rt.evLive[:0]
}

// SetPayloadPool installs a worker pool for the functional GEMM payloads
// of backed buffers. The blocked engine is bitwise deterministic across
// worker counts, so the pool changes only wall-clock time, never results.
// A nil pool (the default) runs payloads inline.
func (rt *Runtime) SetPayloadPool(p *parallel.Pool) { rt.payloadPool = p }

// SetPayloadPolicy selects the CPU kernel numerics for backed payloads.
// The default blas.KernelExact reproduces the GemmNaive oracle bit for
// bit; blas.KernelFMA routes to the fused micro-kernels (FMA/NEON),
// which are ULP-bounded against the oracle and still bitwise
// reproducible across worker counts. Reset restores the default.
func (rt *Runtime) SetPayloadPolicy(p blas.KernelPolicy) { rt.payloadPolicy = p }

// PayloadPolicy reports the kernel policy applied to backed payloads.
func (rt *Runtime) PayloadPolicy() blas.KernelPolicy { return rt.payloadPolicy }

// payloadFailed records a functional payload's error for Sync to return.
// Only the first error of a batch is kept: later failures usually follow
// from it (a factor tile that failed leaves its dependents garbage).
func (rt *Runtime) payloadFailed(routine string, err error) {
	if rt.payloadErr == nil {
		rt.payloadErr = fmt.Errorf("cudart: %s payload: %w", routine, err)
	}
}

// Device returns the underlying simulated device.
func (rt *Runtime) Device() *device.Device { return rt.dev }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.dev.Engine() }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.dev.Engine().Now() }

// allocOp returns a recycled (or fresh) op of the given kind with a live
// completion event attached.
func (rt *Runtime) allocOp(kind opKind) *op {
	var o *op
	if n := len(rt.opFree); n > 0 {
		o = rt.opFree[n-1]
		rt.opFree[n-1] = nil
		rt.opFree = rt.opFree[:n-1]
	} else {
		if len(rt.opSlab) == 0 {
			rt.opSlab = make([]op, 512)
		}
		o = &rt.opSlab[0]
		rt.opSlab = rt.opSlab[1:]
		o.rt = rt
		o.depFn = o.depSatisfied
		o.hwDone = o.hwComplete
	}
	o.kind = kind
	o.complete = rt.allocEvent()
	return o
}

// recycleOp clears an op's references and parks it on the free list,
// returning any host window to the window pool.
func (rt *Runtime) recycleOp(o *op) {
	o.complete = nil
	o.name = ""
	o.payload = nil
	o.buf = nil
	if w := o.host; w != nil {
		o.host = nil
		*w = hostWindow{}
		rt.winFree = append(rt.winFree, w)
	}
	rt.opFree = append(rt.opFree, o)
}

// allocWindow returns a recycled (or fresh) zeroed host window for a
// functional transfer.
func (rt *Runtime) allocWindow() *hostWindow {
	if n := len(rt.winFree); n > 0 {
		w := rt.winFree[n-1]
		rt.winFree[n-1] = nil
		rt.winFree = rt.winFree[:n-1]
		return w
	}
	return &hostWindow{}
}

// needsWindow reports whether a transfer between buf and the given host
// slices can move data (backed buffer and a host side present) and so needs
// its operands carried on the op.
func needsWindow(buf *DevBuffer, hostF64 []float64, hostF32 []float32) bool {
	return (buf.f64 != nil || buf.f32 != nil) && (hostF64 != nil || hostF32 != nil)
}

// allocEvent returns a recycled (or fresh) incomplete event, tracked for
// recycling at the next successful Sync.
func (rt *Runtime) allocEvent() *Event {
	var e *Event
	if n := len(rt.evFree); n > 0 {
		e = rt.evFree[n-1]
		rt.evFree[n-1] = nil
		rt.evFree = rt.evFree[:n-1]
		e.done = false
	} else {
		if len(rt.evSlab) == 0 {
			rt.evSlab = make([]Event, 1024)
		}
		e = &rt.evSlab[0]
		rt.evSlab = rt.evSlab[1:]
	}
	rt.evLive = append(rt.evLive, e)
	return e
}

// launch hands a ready op to the hardware.
//
//cocolint:hotpath
func (rt *Runtime) launch(o *op) {
	switch o.kind {
	case opCallback:
		if o.payload != nil {
			//lint:ignore hotpath callback payloads are caller-provided host functions; schedulers keep them off the steady-state replay path
			o.payload()
		}
		o.finish()
	case opKernel:
		rt.dev.LaunchKernel(o.name, o.duration, o.payload, o.hwDone)
	default:
		rt.dev.Link().Submit(o.dir, o.bytes, o.hwDone)
	}
}

// fire completes an event and releases its waiters, decrementing their
// dependency counters and launching every op that reaches zero. The waiters
// backing array is kept for reuse: no appends can race the drain because a
// done event never accepts new waiters.
//
//cocolint:hotpath
func fire(e *Event) {
	if e.done {
		return
	}
	e.done = true
	if w := e.w0; w != nil {
		e.w0 = nil
		w.depSatisfied()
	}
	if len(e.waiters) > 0 {
		ws := e.waiters
		e.waiters = e.waiters[:0]
		for _, o := range ws {
			o.depSatisfied()
		}
	}
}

// addWaiter registers o to run after e (no-op when e already completed;
// the caller must have counted the dependency before calling). The first
// waiter takes the inline slot; registration order is preserved because
// fire drains the slot before the overflow slice.
func addWaiter(e *Event, o *op) bool {
	if e == nil || e.done {
		return false
	}
	if e.w0 == nil && len(e.waiters) == 0 {
		e.w0 = o
		return true
	}
	e.waiters = append(e.waiters, o)
	return true
}

// Stream is an in-order command queue.
type Stream struct {
	rt    *Runtime
	id    int
	tail  *Event
	waits []*Event
}

// NewStream creates a stream. The runtime tracks it so Sync can reset its
// tail when the completed batch's events are recycled.
func (rt *Runtime) NewStream() *Stream {
	rt.streams++
	s := &Stream{rt: rt, id: rt.streams, tail: doneEvent}
	rt.streamList = append(rt.streamList, s)
	return s
}

// ID returns a small integer identifying the stream (useful in traces).
func (s *Stream) ID() int { return s.id }

// TruncateStreams drops every stream created after the first n and rewinds
// the stream-id counter, so the next NewStream call hands out the same id a
// fresh runtime's n+1-th stream would get. Callers that pool a runtime
// together with a context holding n long-lived streams use it to shed the
// per-call streams comparator libraries create, keeping both the Sync
// tail-reset loop and the id sequence identical across pooled repetitions.
// It must only be called between batches (no operations outstanding).
func (rt *Runtime) TruncateStreams(n int) {
	if n > len(rt.streamList) {
		n = len(rt.streamList)
	}
	for i := n; i < len(rt.streamList); i++ {
		rt.streamList[i] = nil
	}
	rt.streamList = rt.streamList[:n]
	rt.streams = n
}

// WaitEvent orders all work submitted to s after this call behind ev.
//
//cocolint:hotpath
func (s *Stream) WaitEvent(ev *Event) {
	if ev == nil || ev.done {
		return
	}
	//lint:ignore hotpath waits drains back to length zero at every enqueue; the backing array grows only to the widest wait fan-in
	s.waits = append(s.waits, ev)
}

// Record returns an event that completes when all work submitted to s so
// far has completed.
func (s *Stream) Record() *Event { return s.tail }

// enqueue appends a filled op to the stream, wiring its dependency edges.
//
//cocolint:hotpath
func (s *Stream) enqueue(o *op) *Event {
	rt := s.rt
	rt.outstanding++
	deps := int32(0)
	if addWaiter(s.tail, o) {
		deps++
	}
	for _, w := range s.waits {
		if addWaiter(w, o) {
			deps++
		}
	}
	s.waits = s.waits[:0]
	s.tail = o.complete
	if deps == 0 {
		o.deps = 1
		// Defer through the engine so submission order among independent
		// ops is preserved and callers never re-enter the hardware model.
		rt.Engine().After(0, o.depFn)
	} else {
		o.deps = deps
	}
	return o.complete
}

// TransferOp enqueues a pre-validated timing-only transfer: bytes move in
// direction dir through device buffer buf with no host-side window. It
// produces the identical op, dependency and event structure as the checked
// Memcpy/SetMatrix/GetMatrix entry points do on unbacked buffers — the plan
// replay tape uses it to skip per-op validation and operand resolution.
//
//cocolint:hotpath
func (s *Stream) TransferOp(dir machine.LinkDir, bytes int64, buf *DevBuffer) *Event {
	kind := opH2D
	if dir == machine.D2H {
		kind = opD2H
	}
	o := s.rt.allocOp(kind)
	o.dir, o.bytes = dir, bytes
	o.buf = buf
	return s.enqueue(o)
}

// KernelOp enqueues a payload-free kernel with a precomputed duration — the
// tape replay analog of GemmAsync/GemvAsync/AxpyAsync on unbacked buffers,
// whose payloads are nil and whose durations are pure functions of the
// launch shape.
//
//cocolint:hotpath
func (s *Stream) KernelOp(name string, duration float64) *Event {
	o := s.rt.allocOp(opKernel)
	o.name, o.duration = name, duration
	return s.enqueue(o)
}

// Callback enqueues a zero-duration host function that runs in stream
// order (like cudaLaunchHostFunc).
func (s *Stream) Callback(fn func()) *Event {
	o := s.rt.allocOp(opCallback)
	o.payload = fn
	return s.enqueue(o)
}

// Sync runs the simulation until every submitted operation has completed.
// It returns the virtual time, or an error if operations remain blocked on
// dependencies that can never fire (a scheduling bug: a dependency cycle or
// an event that is never recorded) or if a functional payload failed. A
// payload error (wrapping the blas error, e.g. blas.ErrNotPositiveDefinite)
// is the first one of the batch; the batch still drains and is recycled
// as on success, so the runtime stays usable.
//
// On a drained batch the events are recycled and every stream's tail
// resets to the pre-completed event, so event handles returned before
// this call must not be used afterwards.
//
//cocolint:hotpath
func (rt *Runtime) Sync() (sim.Time, error) {
	end := rt.Engine().Run()
	payloadErr := rt.payloadErr
	rt.payloadErr = nil
	if rt.outstanding != 0 {
		//lint:ignore hotpath deadlock is a scheduling bug; this error path runs at most once per failed batch
		return end, errors.Join(payloadErr, fmt.Errorf("cudart: deadlock: %d operations still blocked after drain", rt.outstanding))
	}
	for i, e := range rt.evLive {
		rt.evLive[i] = nil
		e.w0 = nil
		e.waiters = e.waiters[:0]
		//lint:ignore hotpath evFree reuses its backing array; it grows only until the deepest batch of the run
		rt.evFree = append(rt.evFree, e)
	}
	rt.evLive = rt.evLive[:0]
	for _, s := range rt.streamList {
		s.tail = doneEvent
		s.waits = s.waits[:0]
	}
	return end, payloadErr
}

// DevBuffer is typed device memory. Backed buffers carry real element
// storage for functional runs; unbacked buffers are accounting-only and are
// used for paper-scale timing runs.
type DevBuffer struct {
	mem   *device.Buffer
	dt    kernelmodel.Dtype
	elems int64
	f64   []float64
	f32   []float32
}

// Dtype returns the buffer element type.
func (b *DevBuffer) Dtype() kernelmodel.Dtype { return b.dt }

// Elems returns the buffer capacity in elements.
func (b *DevBuffer) Elems() int64 { return b.elems }

// Backed reports whether the buffer carries real storage.
func (b *DevBuffer) Backed() bool { return b.f64 != nil || b.f32 != nil }

// F64 exposes the backing storage of a backed float64 buffer (nil
// otherwise). Intended for test verification, not scheduler logic.
func (b *DevBuffer) F64() []float64 { return b.f64 }

// F32 exposes the backing storage of a backed float32 buffer.
func (b *DevBuffer) F32() []float32 { return b.f32 }

// Malloc allocates a device buffer of elems elements. When backed is true
// the buffer carries real storage (functional mode).
func (rt *Runtime) Malloc(dt kernelmodel.Dtype, elems int64, backed bool) (*DevBuffer, error) {
	if elems < 0 {
		return nil, fmt.Errorf("cudart: negative element count %d", elems)
	}
	mem, err := rt.dev.Malloc(elems * dt.Size())
	if err != nil {
		return nil, err
	}
	b := &DevBuffer{mem: mem, dt: dt, elems: elems}
	if backed {
		if dt == kernelmodel.F64 {
			b.f64 = make([]float64, elems)
		} else {
			b.f32 = make([]float32, elems)
		}
	}
	return b, nil
}

// Free releases a device buffer.
func (rt *Runtime) Free(b *DevBuffer) error {
	if b == nil {
		return errors.New("cudart: free of nil buffer")
	}
	b.f64, b.f32 = nil, nil
	return rt.dev.Free(b.mem)
}

// memcpyBounds validates an elems-sized access at off into b.
func memcpyBounds(b *DevBuffer, off, elems int64, what string) error {
	if b == nil {
		return fmt.Errorf("cudart: %s: nil device buffer", what)
	}
	if off < 0 || elems < 0 || off+elems > b.elems {
		return fmt.Errorf("cudart: %s: range [%d, %d) outside buffer of %d elems",
			what, off, off+elems, b.elems)
	}
	return nil
}

// MemcpyH2DAsync enqueues a 1-D host-to-device copy of elems elements from
// hostF64/hostF32 (per the buffer dtype) into dst at dstOff.
func (s *Stream) MemcpyH2DAsync(dst *DevBuffer, dstOff int64, hostF64 []float64, hostF32 []float32, elems int64) (*Event, error) {
	if err := memcpyBounds(dst, dstOff, elems, "h2d"); err != nil {
		return nil, err
	}
	o := s.rt.allocOp(opH2D)
	o.dir, o.bytes = machine.H2D, elems*dst.dt.Size()
	o.buf = dst
	if needsWindow(dst, hostF64, hostF32) {
		w := s.rt.allocWindow()
		w.f64, w.f32, w.off, w.elems = hostF64, hostF32, dstOff, elems
		o.host = w
	}
	return s.enqueue(o), nil
}

// MemcpyD2HAsync enqueues a 1-D device-to-host copy.
func (s *Stream) MemcpyD2HAsync(hostF64 []float64, hostF32 []float32, src *DevBuffer, srcOff, elems int64) (*Event, error) {
	if err := memcpyBounds(src, srcOff, elems, "d2h"); err != nil {
		return nil, err
	}
	o := s.rt.allocOp(opD2H)
	o.dir, o.bytes = machine.D2H, elems*src.dt.Size()
	o.buf = src
	if needsWindow(src, hostF64, hostF32) {
		w := s.rt.allocWindow()
		w.f64, w.f32, w.off, w.elems = hostF64, hostF32, srcOff, elems
		o.host = w
	}
	return s.enqueue(o), nil
}

// matrixArgs describes one side of a 2-D (sub)matrix copy, in the manner of
// cublasSetMatrixAsync / cublasGetMatrixAsync: rows x cols elements,
// column-major with a leading dimension.
func check2D(rows, cols int, ld int, what string) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("cudart: %s: negative dims %dx%d", what, rows, cols)
	}
	if ld < max(1, rows) {
		return fmt.Errorf("cudart: %s: ld %d < rows %d", what, ld, rows)
	}
	return nil
}

// SetMatrixAsync enqueues a 2-D h2d copy of a rows x cols column-major
// submatrix from host (leading dimension ldh) into dst at element offset
// dstOff with leading dimension ldd. Exactly one of hostF64/hostF32 must
// match the buffer dtype in functional runs.
func (s *Stream) SetMatrixAsync(rows, cols int, hostF64 []float64, hostF32 []float32, ldh int, dst *DevBuffer, dstOff int64, ldd int) (*Event, error) {
	if err := check2D(rows, cols, ldh, "setmatrix host"); err != nil {
		return nil, err
	}
	if err := check2D(rows, cols, ldd, "setmatrix device"); err != nil {
		return nil, err
	}
	need := int64(0)
	if cols > 0 {
		need = int64(cols-1)*int64(ldd) + int64(rows)
	}
	if err := memcpyBounds(dst, dstOff, need, "setmatrix"); err != nil {
		return nil, err
	}
	o := s.rt.allocOp(opSet2D)
	o.dir, o.bytes = machine.H2D, int64(rows)*int64(cols)*dst.dt.Size()
	o.buf = dst
	if needsWindow(dst, hostF64, hostF32) {
		w := s.rt.allocWindow()
		w.f64, w.f32, w.off = hostF64, hostF32, dstOff
		w.rows, w.cols, w.ldh, w.ldd = int32(rows), int32(cols), int32(ldh), int32(ldd)
		o.host = w
	}
	return s.enqueue(o), nil
}

// GetMatrixAsync enqueues a 2-D d2h copy (the cublasGetMatrixAsync analog).
func (s *Stream) GetMatrixAsync(rows, cols int, src *DevBuffer, srcOff int64, lds int, hostF64 []float64, hostF32 []float32, ldh int) (*Event, error) {
	if err := check2D(rows, cols, lds, "getmatrix device"); err != nil {
		return nil, err
	}
	if err := check2D(rows, cols, ldh, "getmatrix host"); err != nil {
		return nil, err
	}
	need := int64(0)
	if cols > 0 {
		need = int64(cols-1)*int64(lds) + int64(rows)
	}
	if err := memcpyBounds(src, srcOff, need, "getmatrix"); err != nil {
		return nil, err
	}
	o := s.rt.allocOp(opGet2D)
	o.dir, o.bytes = machine.D2H, int64(rows)*int64(cols)*src.dt.Size()
	o.buf = src
	if needsWindow(src, hostF64, hostF32) {
		w := s.rt.allocWindow()
		w.f64, w.f32, w.off = hostF64, hostF32, srcOff
		w.rows, w.cols, w.ldh, w.ldd = int32(rows), int32(cols), int32(ldh), int32(lds)
		o.host = w
	}
	return s.enqueue(o), nil
}

// KernelAsync enqueues a generic kernel with an explicit duration and an
// optional functional payload. Comparator libraries use it to model their
// own runtime overheads (e.g. tile-management work) on the compute engine.
func (s *Stream) KernelAsync(name string, duration float64, payload func()) (*Event, error) {
	if duration < 0 {
		return nil, fmt.Errorf("cudart: negative kernel duration %g", duration)
	}
	o := s.rt.allocOp(opKernel)
	o.name, o.duration, o.payload = name, duration, payload
	return s.enqueue(o), nil
}

// GemmAsync enqueues C = alpha*op(A)*op(B) + beta*C on the stream, where
// the operands are column-major submatrices of device buffers. Timing comes
// from the kernel ground-truth model; arithmetic runs on backed buffers.
func (s *Stream) GemmAsync(transA, transB byte, m, n, k int,
	alpha float64, a *DevBuffer, offA int64, lda int,
	b *DevBuffer, offB int64, ldb int,
	beta float64, c *DevBuffer, offC int64, ldc int) (*Event, error) {

	dt := c.dt
	if a.dt != dt || b.dt != dt {
		return nil, errors.New("cudart: gemm operand dtype mismatch")
	}
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindGemm, Dtype: dt, M: m, N: n, K: k})
	name := "dgemm"
	if dt == kernelmodel.F32 {
		name = "sgemm"
	}
	var payload func()
	if c.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.GemmParallelPolicy(s.rt.payloadPool, s.rt.payloadPolicy, transA, transB, m, n, k, alpha,
					a.f64[offA:], lda, b.f64[offB:], ldb, beta, c.f64[offC:], ldc)
			} else {
				err = blas.GemmParallelPolicy(s.rt.payloadPool, s.rt.payloadPolicy, transA, transB, m, n, k, float32(alpha),
					a.f32[offA:], lda, b.f32[offB:], ldb, float32(beta), c.f32[offC:], ldc)
			}
			if err != nil {
				s.rt.payloadFailed("gemm", err)
			}
		}
	}
	o := s.allocKernelOp(name, dur, payload)
	return s.enqueue(o), nil
}

// allocKernelOp builds a kernel op (shared by the BLAS launch wrappers).
func (s *Stream) allocKernelOp(name string, dur float64, payload func()) *op {
	o := s.rt.allocOp(opKernel)
	o.name, o.duration, o.payload = name, dur, payload
	return o
}

// AxpyAsync enqueues y += alpha*x over device vectors.
func (s *Stream) AxpyAsync(n int, alpha float64, x *DevBuffer, offX int64, y *DevBuffer, offY int64) (*Event, error) {
	if x.dt != y.dt {
		return nil, errors.New("cudart: axpy operand dtype mismatch")
	}
	if err := memcpyBounds(x, offX, int64(n), "axpy x"); err != nil {
		return nil, err
	}
	if err := memcpyBounds(y, offY, int64(n), "axpy y"); err != nil {
		return nil, err
	}
	dt := y.dt
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindAxpy, Dtype: dt, N: n})
	name := "daxpy"
	if dt == kernelmodel.F32 {
		name = "saxpy"
	}
	var payload func()
	if y.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Daxpy(n, alpha, x.f64[offX:], 1, y.f64[offY:], 1)
			} else {
				err = blas.Saxpy(n, float32(alpha), x.f32[offX:], 1, y.f32[offY:], 1)
			}
			if err != nil {
				s.rt.payloadFailed("axpy", err)
			}
		}
	}
	o := s.allocKernelOp(name, dur, payload)
	return s.enqueue(o), nil
}

// GemvAsync enqueues y = alpha*op(A)*x + beta*y over device operands.
func (s *Stream) GemvAsync(trans byte, m, n int, alpha float64,
	a *DevBuffer, offA int64, lda int, x *DevBuffer, offX int64,
	beta float64, y *DevBuffer, offY int64) (*Event, error) {
	if a.dt != x.dt || x.dt != y.dt {
		return nil, errors.New("cudart: gemv operand dtype mismatch")
	}
	dt := y.dt
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindGemv, Dtype: dt, M: m, N: n})
	var payload func()
	if y.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Dgemv(trans, m, n, alpha, a.f64[offA:], lda, x.f64[offX:], 1, beta, y.f64[offY:], 1)
			} else {
				err = blas.Gemv(trans, m, n, float32(alpha), a.f32[offA:], lda, x.f32[offX:], 1, float32(beta), y.f32[offY:], 1)
			}
			if err != nil {
				s.rt.payloadFailed("gemv", err)
			}
		}
	}
	o := s.allocKernelOp("gemv", dur, payload)
	return s.enqueue(o), nil
}
