// Package cudart provides the CUDA-runtime-like programming model the tile
// plans replay onto: in-order streams, events, asynchronous transfers and
// asynchronous kernel launches, on top of the discrete-event device
// simulator.
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
// Work reaches the engines through two primitives, Stream.TransferOp and
// Stream.KernelOp, which carry timing only: a transfer's volume, a kernel's
// name and duration. Callback runs a host function in stream order.
//
// Functional work (the data a backed transfer moves, the arithmetic a
// backed kernel performs) never runs inside the simulation. It is
// registered with Runtime.AddJob as a Job, and Sync runs the batch's jobs
// in registration order on the runtime's payload pool once the engine has
// drained. Numerically verified runs and timed runs therefore issue the
// identical operation sequence, and the discrete-event simulation is
// timing-only in both. MemcpyH2DAsync and MemcpyD2HAsync are checked 1-D
// transfers on top of TransferOp that register their copy as a one-op job.
//
// The launch path is allocation-free in steady state. Ops are carved in
// enqueue order from a per-batch arena of retained fixed-size chunks, and
// each op embeds its completion event. Dependency edges are int32 arena
// handles, and outstanding-dependency counts live in a dense array beside
// the ops, so releasing a waiter is an array decrement. The device and
// link notify completions through a handle (the runtime plus the op's
// slot), so no slot holds a callback object. A Sync that drains the batch
// rewinds the arena (replay op i always reuses slot i) and resets every
// stream's tail to the shared pre-completed event.
package cudart

import (
	"errors"
	"fmt"
	"math"

	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

// Event is a completion marker, as in CUDA. Events come from Stream.Record
// or are pre-completed via DoneEvent; a zero Event never completes.
//
// Lifetime: every event except DoneEvent is embedded in the op whose
// completion it marks, and the next batch reuses that op once Runtime.Sync
// has drained this one. An *Event returned by this package is therefore
// valid until the Sync call that drains it returns successfully (or until
// Runtime.Reset); holders must drop their references at that point (every
// scheduler in this repository consumes its events within one enqueue+Sync
// cycle).
//
// Waiters are arena handles, not pointers. Nearly every event has one or
// two waiters — the next op chained on a stream tail, and often one op on
// another stream — so the first two waiters live in inline slots and only
// fan-outs of three or more touch the overflow. The overflow waiters live in the runtime, not in the event: a
// circular list per event threaded through the runtime's chunked waiter
// nodes, which survive reuse, so steady-state replays allocate no waiter
// arrays at all.
type Event struct {
	w0   int32 // arena slot + 1 of the first waiter; 0 when none
	w1   int32 // arena slot + 1 of the second waiter; 0 when none
	ov   int32 // node index + 1 of the last overflow waiter, whose next is the first; 0 when none
	done bool
}

// doneEvent is the shared pre-completed event. It is immutable in effect:
// only an op's own event is ever fired, and addWaiter never registers on a
// done event.
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
	opH2D                    // host-to-device transfer
	opD2H                    // device-to-host transfer
)

var opKindNames = [...]string{"callback", "kernel", "h2d", "d2h"}

// Job is the functional work of enqueued operations: the data movement and
// arithmetic on backed buffers that their simulated transfers and kernels
// stand for. Sync runs a batch's jobs after the engine drains, in
// registration order, on the runtime's payload pool (nil runs inline).
type Job func(pool *parallel.Pool) error

// op is one scheduled stream operation. Ops live in the runtime's arena:
// an op's slot is fixed for the object's life, and the object is reused
// only after its batch has drained.
//
// The op is 40 bytes. It holds no pointer back to its runtime (the arena
// knows it), its kernel name is an index into the kernel-name table, the
// kernel duration and the transfer volume share one word, and the event's
// overflow waiters live in the runtime. No op carries functional operands:
// those belong to the batch's jobs.
type op struct {
	fn func() // callback body; nil for every other kind

	// amount is the kind-exclusive scalar: a kernel's duration in seconds
	// (as float64 bits) or a transfer's volume in bytes.
	amount uint64

	slot int32      // arena slot: the op's index in its batch
	name KernelName // kernel ops: index into the kernel-name table
	kind opKind
	dir  machine.LinkDir

	complete Event
}

// duration is a kernel op's duration in seconds.
func (o *op) duration() float64 { return math.Float64frombits(o.amount) }

// bytes is a transfer op's volume.
func (o *op) bytes() int64 { return int64(o.amount) }

// Window is the functional side of a transfer between a backed device
// buffer and host storage: Cols columns of Rows elements each, column j at
// Off + j*Ldd in Buf and at j*Ldh in the host slice matching the buffer's
// dtype. A 1-D copy is one column. Jobs move windows with Move.
type Window struct {
	Buf      *DevBuffer
	F64      []float64
	F32      []float32
	Off      int64
	Rows     int64
	Cols     int32
	Ldh, Ldd int32
}

// waiterNode is one overflow waiter: the arena slot it releases and the
// node index of the next waiter of the same event.
type waiterNode struct {
	slot, next int32
}

// hwPort is the runtime as the device and link see it: a completion
// receiver notified with the arena slot of the op whose kernel or transfer
// finished. It is the Runtime under another name, so handing it to the
// hardware models converts a pointer and allocates nothing.
type hwPort Runtime

// Complete is the hardware-completion callback: it finishes the op whose
// kernel or transfer completed.
//
//cocolint:hotpath
func (p *hwPort) Complete(slot int32) {
	rt := (*Runtime)(p)
	rt.finish(rt.opAt(slot))
}

// handle is the completion handle of the op at slot h.
func (rt *Runtime) handle(h int32) sim.Handle {
	return sim.Handle{To: (*hwPort)(rt), Slot: h}
}

// finish retires a completed op: it drops the operand references and fires
// the completion event, launching the waiters it releases.
//
//cocolint:hotpath
func (rt *Runtime) finish(o *op) {
	rt.outstanding--
	rt.recycleOp(o)
	rt.fire(&o.complete)
}

// Move performs a window's data movement in direction dir (H2D copies host
// to device), in the dtype both sides carry (a side without storage moves
// nothing).
func (w *Window) Move(dir machine.LinkDir) {
	b := w.Buf
	switch {
	case b.f64 != nil && w.F64 != nil:
		moveCols(b.f64, w.F64, w, dir)
	case b.f32 != nil && w.F32 != nil:
		moveCols(b.f32, w.F32, w, dir)
	}
}

// moveCols copies a window's columns between device and host storage.
func moveCols[T float32 | float64](dev, host []T, w *Window, dir machine.LinkDir) {
	for j := int64(0); j < int64(w.Cols); j++ {
		d := dev[w.Off+j*int64(w.Ldd):][:w.Rows]
		h := host[j*int64(w.Ldh):][:w.Rows]
		if dir == machine.H2D {
			copy(d, h)
		} else {
			copy(h, d)
		}
	}
}

// opChunk is the arena's chunk size in ops, and waiterChunk the overflow
// waiter store's in nodes. Both are small because every runtime that
// launches holds at least one of each: sessions that launch only short
// batches keep a small footprint. Growing by whole chunks copies nothing,
// so a deep batch allocates its arena once, not once per doubling.
const (
	opChunkShift     = 9
	opChunk          = 1 << opChunkShift
	waiterChunkShift = 10
	waiterChunk      = 1 << waiterChunkShift
)

// arenaChunk holds opChunk consecutive arena slots: the ops, and their
// outstanding-dependency counts in a dense array of their own, so that
// releasing a waiter touches the op only when its last dependency goes.
type arenaChunk struct {
	ops  [opChunk]op
	deps [opChunk]int32
}

// Runtime owns the streams and buffers of one simulated process.
type Runtime struct {
	dev         *device.Device
	outstanding int
	streams     int
	streamList  []*Stream
	// payloadPool runs the batch's jobs; New and Reset install a
	// GOMAXPROCS-wide pool.
	payloadPool *parallel.Pool
	// jobs holds the functional work registered since the last Sync, in
	// registration order.
	jobs []Job

	// The op arena. Ops are carved in enqueue order from retained chunks;
	// next is the cursor (the batch index of the next op). A chunk is
	// appended only when a batch runs deeper than any before it, and a
	// drained Sync or Reset rewinds next to zero, so a replay's firing
	// walks the same memory forward along each stream every time.
	chunks []*arenaChunk
	next   int32

	// waiters holds the overflow waiters (second and later) of the batch's
	// events in retained chunks, numbered in registration order across the
	// batch; each event's nodes form a circular list entered at its last
	// node. A drained Sync or Reset rewinds nwaiters, so a replay refills
	// the same chunks.
	waiters  []*[waiterChunk]waiterNode
	nwaiters int32

	// roots holds, in enqueue order, the slots of ops enqueued with no
	// outstanding dependency, each waiting for its start event. Start
	// events fire in (time, sequence) order, which is their enqueue order, so
	// startFn — one method value per runtime — always starts the head.
	roots    []int32
	rootHead int
	startFn  func()
}

// New creates a runtime bound to a device. Its jobs run on a
// GOMAXPROCS-wide pool (see SetPayloadPool).
func New(dev *device.Device) *Runtime {
	rt := &Runtime{dev: dev, payloadPool: parallel.NewPool(0)}
	rt.startFn = rt.startRoot
	return rt
}

// Reset rebinds the runtime to a fresh device while keeping its warmed
// object pools: the op arena and the overflow waiter nodes. Streams of the
// previous run are dropped. Operations and jobs still pending (after a
// failed Sync) are abandoned exactly as discarding the runtime would
// abandon them: their operands are dropped and the arena rewinds, so the
// previous device must not run again. After Reset the runtime behaves
// identically to New(dev); only allocation behaviour differs.
func (rt *Runtime) Reset(dev *device.Device) {
	rt.dev = dev
	rt.outstanding = 0
	rt.streams = 0
	rt.payloadPool = parallel.NewPool(0)
	rt.dropJobs()
	for i := range rt.streamList {
		rt.streamList[i] = nil
	}
	rt.streamList = rt.streamList[:0]
	for h := int32(0); h < rt.next; h++ {
		rt.recycleOp(rt.opAt(h))
	}
	rt.next = 0
	rt.nwaiters = 0
	rt.roots = rt.roots[:0]
	rt.rootHead = 0
}

// SetPayloadPool replaces the worker pool that jobs run on (a
// GOMAXPROCS-wide pool by default). Jobs are bitwise deterministic across
// worker counts, so the pool changes only wall-clock time, never results.
// A nil pool runs jobs inline. Timing-only runs register no jobs and never
// touch the pool.
func (rt *Runtime) SetPayloadPool(p *parallel.Pool) { rt.payloadPool = p }

// Device returns the underlying simulated device.
func (rt *Runtime) Device() *device.Device { return rt.dev }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.dev.Engine() }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.dev.Engine().Now() }

// opAt returns the op at arena slot h.
func (rt *Runtime) opAt(h int32) *op {
	return &rt.chunks[h>>opChunkShift].ops[h&(opChunk-1)]
}

// depsAt returns the outstanding-dependency count of the op at slot h.
func (rt *Runtime) depsAt(h int32) *int32 {
	return &rt.chunks[h>>opChunkShift].deps[h&(opChunk-1)]
}

// waiterAt returns overflow waiter node i.
func (rt *Runtime) waiterAt(i int32) *waiterNode {
	return &rt.waiters[i>>waiterChunkShift][i&(waiterChunk-1)]
}

// allocOp carves the next arena slot as an op of the given kind with a
// fresh completion event.
func (rt *Runtime) allocOp(kind opKind) *op {
	h := rt.next
	if int(h) == len(rt.chunks)*opChunk {
		rt.growArena()
	}
	rt.next++
	o := rt.opAt(h)
	o.kind = kind
	o.complete = Event{}
	return o
}

// growArena appends one chunk to the arena, numbering each new op with its
// slot.
func (rt *Runtime) growArena() {
	c := new(arenaChunk)
	base := int32(len(rt.chunks) * opChunk)
	for i := range c.ops {
		c.ops[i].slot = base + int32(i)
	}
	rt.chunks = append(rt.chunks, c)
}

// recycleOp drops a finished (or abandoned) op's kernel name and callback,
// so the arena pins no callback closures.
func (rt *Runtime) recycleOp(o *op) {
	o.name = 0
	o.fn = nil
}

// launch hands a ready op to the hardware.
//
//cocolint:hotpath
func (rt *Runtime) launch(o *op) {
	switch o.kind {
	case opCallback:
		//lint:ignore hotpath callbacks are caller-provided host functions; schedulers keep them off the steady-state replay path
		o.fn()
		rt.finish(o)
	case opKernel:
		rt.dev.LaunchKernel(kernelNames[o.name], o.duration(), rt.handle(o.slot))
	default:
		rt.dev.Link().Submit(o.dir, o.bytes(), rt.handle(o.slot))
	}
}

// startRoot launches the op whose start event is firing: the head of the
// root queue.
//
//cocolint:hotpath
func (rt *Runtime) startRoot() {
	h := rt.roots[rt.rootHead]
	rt.rootHead++
	if rt.rootHead == len(rt.roots) {
		rt.roots = rt.roots[:0]
		rt.rootHead = 0
	}
	rt.launch(rt.opAt(h))
}

// fire completes an op's event and releases its waiters in registration
// order. A done event accepts no new waiters, so nothing appends to its
// overflow list while it drains.
//
//cocolint:hotpath
func (rt *Runtime) fire(e *Event) {
	e.done = true
	if e.w0 != 0 {
		rt.release(e.w0 - 1)
	}
	if e.w1 != 0 {
		rt.release(e.w1 - 1)
	}
	if e.ov != 0 {
		last := e.ov - 1
		for i := rt.waiterAt(last).next; ; {
			w := rt.waiterAt(i)
			rt.release(w.slot)
			if i == last {
				break
			}
			i = w.next
		}
	}
}

// release counts one satisfied dependency of the op at slot h and launches
// it when none remain; the op itself is touched only then.
//
//cocolint:hotpath
func (rt *Runtime) release(h int32) {
	c := rt.chunks[h>>opChunkShift]
	d := &c.deps[h&(opChunk-1)]
	*d--
	if *d == 0 {
		rt.launch(&c.ops[h&(opChunk-1)])
	}
}

// addWaiter registers the op at slot h to run after e and reports whether
// it did (not when e already completed). The first two waiters take the
// inline slots and later ones join the event's circular overflow list as
// its new last node; registration order is preserved because fire drains
// the inline slots first and then walks the list from its first node.
func (rt *Runtime) addWaiter(e *Event, h int32) bool {
	if e == nil || e.done {
		return false
	}
	if e.w0 == 0 {
		e.w0 = h + 1
		return true
	}
	if e.w1 == 0 {
		e.w1 = h + 1
		return true
	}
	n := rt.nwaiters
	if int(n) == len(rt.waiters)*waiterChunk {
		rt.waiters = append(rt.waiters, new([waiterChunk]waiterNode))
	}
	rt.nwaiters++
	w := rt.waiterAt(n)
	w.slot, w.next = h, n
	if e.ov != 0 {
		last := rt.waiterAt(e.ov - 1)
		w.next, last.next = last.next, n
	}
	e.ov = n + 1
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
// tail when the completed batch's ops are reused.
func (rt *Runtime) NewStream() *Stream {
	rt.streams++
	s := &Stream{rt: rt, id: rt.streams, tail: doneEvent}
	rt.streamList = append(rt.streamList, s)
	return s
}

// ID returns a small integer identifying the stream (useful in traces).
func (s *Stream) ID() int { return s.id }

// WaitEvent orders all work submitted to s after this call behind ev,
// which must come from s's runtime (or be DoneEvent): waiters are handles
// into the recording runtime's arena.
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
	if rt.addWaiter(s.tail, o.slot) {
		deps++
	}
	for _, w := range s.waits {
		if rt.addWaiter(w, o.slot) {
			deps++
		}
	}
	s.waits = s.waits[:0]
	s.tail = &o.complete
	*rt.depsAt(o.slot) = deps
	if deps == 0 {
		// Defer through the engine so submission order among independent
		// ops is preserved and callers never re-enter the hardware model.
		//lint:ignore hotpath roots compacts to length zero whenever its start events drain; the backing array grows only to the widest burst of independent ops
		rt.roots = append(rt.roots, o.slot)
		rt.Engine().After(0, rt.startFn)
	}
	return &o.complete
}

// TransferOp enqueues a transfer of bytes in direction dir. It moves no
// data: the data of a backed transfer is moved by a job. The transfer is
// not validated; MemcpyH2DAsync and MemcpyD2HAsync are the checked 1-D
// forms.
//
//cocolint:hotpath
func (s *Stream) TransferOp(dir machine.LinkDir, bytes int64) *Event {
	kind := opH2D
	if dir == machine.D2H {
		kind = opD2H
	}
	o := s.rt.allocOp(kind)
	o.dir, o.amount = dir, uint64(bytes)
	return s.enqueue(o)
}

// KernelOp enqueues kernel name with the given duration. It computes
// nothing: the arithmetic of a backed kernel is done by a job.
//
//cocolint:hotpath
func (s *Stream) KernelOp(name KernelName, duration float64) *Event {
	o := s.rt.allocOp(opKernel)
	o.name, o.amount = name, math.Float64bits(duration)
	return s.enqueue(o)
}

// Callback enqueues a zero-duration host function that runs in stream
// order (like cudaLaunchHostFunc).
func (s *Stream) Callback(fn func()) *Event {
	o := s.rt.allocOp(opCallback)
	o.fn = fn
	return s.enqueue(o)
}

// AddJob registers functional work with the current batch: the next Sync
// runs it after the engine drains, after every job registered before it.
func (rt *Runtime) AddJob(j Job) { rt.jobs = append(rt.jobs, j) }

// dropJobs forgets the registered jobs, keeping the slice's backing array.
func (rt *Runtime) dropJobs() {
	clear(rt.jobs)
	rt.jobs = rt.jobs[:0]
}

// Sync runs the simulation until every submitted operation has completed,
// then runs the batch's jobs in registration order on the payload pool. It
// returns the virtual time, or an error if operations remain blocked on
// dependencies that can never fire (a scheduling bug: a dependency cycle or
// an event that is never recorded) or if a job failed. A deadlock error
// names the lowest blocked op by its index in the batch, and the batch's
// jobs are dropped unrun. A job error (which wraps the blas error, e.g.
// blas.ErrNotPositiveDefinite) ends the batch: the jobs after the failed
// one are dropped, the ops are reused as on success, and the runtime stays
// usable.
//
// On a drained batch the arena rewinds and every stream's tail resets to
// the pre-completed event, so event handles returned before this call must
// not be used afterwards.
//
//cocolint:hotpath
func (rt *Runtime) Sync() (sim.Time, error) {
	end := rt.Engine().Run()
	if rt.outstanding != 0 {
		rt.dropJobs()
		//lint:ignore hotpath deadlock is a scheduling bug; this error path runs at most once per failed batch
		return end, rt.deadlock()
	}
	rt.next = 0
	rt.nwaiters = 0
	for _, s := range rt.streamList {
		s.tail = doneEvent
		s.waits = s.waits[:0]
	}
	var err error
	for _, j := range rt.jobs {
		//lint:ignore hotpath only backed batches register jobs; their arithmetic dwarfs the dynamic call
		if err = j(rt.payloadPool); err != nil {
			break
		}
	}
	rt.dropJobs()
	return end, err
}

// deadlock describes a batch that drained with ops still outstanding,
// naming the lowest arena slot still waiting on a dependency: its batch
// index, kind, kernel name and outstanding dependency count.
func (rt *Runtime) deadlock() error {
	msg := fmt.Sprintf("cudart: deadlock: %d operations still blocked after drain", rt.outstanding)
	for h := int32(0); h < rt.next; h++ {
		n := *rt.depsAt(h)
		if n <= 0 {
			continue
		}
		o := rt.opAt(h)
		what := opKindNames[o.kind]
		if o.name != 0 {
			what += " " + kernelNames[o.name]
		}
		unit := "dependencies"
		if n == 1 {
			unit = "dependency"
		}
		return fmt.Errorf("%s; first: op %d (%s) waiting on %d %s", msg, h, what, n, unit)
	}
	return errors.New(msg)
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

// ErrHostSlice reports a 1-D copy whose host slice does not fit the device
// buffer: a slice of the other dtype, or one shorter than the copy.
var ErrHostSlice = errors.New("cudart: host slice does not fit the copy")

// memcpyBounds validates a 1-D copy of elems elements at off into b: the
// range must lie inside b, and a host side, when given (nil/nil is a
// timing-only copy), must be exactly the slice of b's dtype, holding at
// least elems elements.
func memcpyBounds(b *DevBuffer, off, elems int64, hostF64 []float64, hostF32 []float32, what string) error {
	if b == nil {
		return fmt.Errorf("cudart: %s: nil device buffer", what)
	}
	if off < 0 || elems < 0 || off+elems > b.elems {
		return fmt.Errorf("cudart: %s: range [%d, %d) outside buffer of %d elems",
			what, off, off+elems, b.elems)
	}
	if hostF64 == nil && hostF32 == nil {
		return nil
	}
	n, ok := int64(len(hostF64)), hostF32 == nil
	if b.dt == kernelmodel.F32 {
		n, ok = int64(len(hostF32)), hostF64 == nil
	}
	if ok && n >= elems {
		return nil
	}
	host := fmt.Sprintf("[]float64 of %d", len(hostF64))
	if hostF64 == nil {
		host = fmt.Sprintf("[]float32 of %d", len(hostF32))
	} else if hostF32 != nil {
		host += fmt.Sprintf(" and []float32 of %d", len(hostF32))
	}
	return fmt.Errorf("%w: %s of %d %s elements with host %s", ErrHostSlice, what, elems, b.dt, host)
}

// MemcpyH2DAsync enqueues a 1-D host-to-device copy of elems elements from
// hostF64/hostF32 (per the buffer dtype) into dst at dstOff. A copy that
// moves data registers it as a one-op job, so the host slice is read at
// Sync.
func (s *Stream) MemcpyH2DAsync(dst *DevBuffer, dstOff int64, hostF64 []float64, hostF32 []float32, elems int64) (*Event, error) {
	if err := memcpyBounds(dst, dstOff, elems, hostF64, hostF32, "h2d"); err != nil {
		return nil, err
	}
	s.copyJob(machine.H2D, dst, dstOff, hostF64, hostF32, elems)
	return s.TransferOp(machine.H2D, elems*dst.dt.Size()), nil
}

// MemcpyD2HAsync enqueues a 1-D device-to-host copy; like MemcpyH2DAsync,
// it registers the data movement as a one-op job, so the host slice is
// written at Sync.
func (s *Stream) MemcpyD2HAsync(hostF64 []float64, hostF32 []float32, src *DevBuffer, srcOff, elems int64) (*Event, error) {
	if err := memcpyBounds(src, srcOff, elems, hostF64, hostF32, "d2h"); err != nil {
		return nil, err
	}
	s.copyJob(machine.D2H, src, srcOff, hostF64, hostF32, elems)
	return s.TransferOp(machine.D2H, elems*src.dt.Size()), nil
}

// copyJob registers the data movement of a 1-D copy as a job, unless the
// copy moves no data (an unbacked buffer or no host storage).
func (s *Stream) copyJob(dir machine.LinkDir, buf *DevBuffer, off int64, hostF64 []float64, hostF32 []float32, elems int64) {
	if !buf.Backed() || (hostF64 == nil && hostF32 == nil) {
		return
	}
	w := Window{Buf: buf, F64: hostF64, F32: hostF32, Off: off, Rows: elems, Cols: 1}
	s.rt.AddJob(func(*parallel.Pool) error {
		w.Move(dir)
		return nil
	})
}
