package plan

import (
	"sync/atomic"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
)

// Tape is a plan precompiled for timing-only replay on one GPU model: a
// flat instruction array with every per-op decision already taken. Where
// Executor.Run re-derives each op's stream call per replay — nested kind
// switches, transfer-size validation, operand resolution, memoized
// kernel-duration lookups — the tape stores the outcome (stream code,
// byte volume, kernel name and duration, dependency event slots) in
// contiguous slices, so replay is a tight loop over plain data with no
// per-op dispatch beyond one switch on the precomputed code.
//
// A tape is valid only for unbacked (timing-only) targets: functional
// payloads and host-side windows are exactly what it strips. Executor.Run
// remains the reference path for backed runs, and the two are pinned
// event-identical by the plan package's replay tests.
type Tape struct {
	gpu     *machine.GPUSpec // kernel durations are GPU-model-specific
	ops     []tapeOp
	deps    []int32 // dependency edges as completion-event slots
	tailH2D []int32 // tail waits as completion-event slots
	tailCmp []int32
	evSlots int
	slots   []Slot
}

// tapeOp codes: which stream the op runs on and what it enqueues.
const (
	tAlloc uint8 = iota
	tFetch
	tWriteback
	tKernel
)

// tapeNames is the kernel-name table a tapeOp's kernel kind and dtype
// (kernelmodel.F64, kernelmodel.F32) index; keeping the string out of the
// op makes the instruction array pointer-free, so tapes are never scanned
// by the garbage collector and their arenas zero faster.
var tapeNames = [...][2]string{
	KGemm:     {"dgemm", "sgemm"},
	KGemv:     {"gemv", "gemv"},
	KAxpy:     {"daxpy", "daxpy"},
	KDispatch: {"dispatch", "dispatch"},
	KPotrf:    {"dpotrf", "spotrf"},
	KGetrf:    {"dgetrf", "sgetrf"},
	KTrsm:     {"dtrsm", "strsm"},
	KSyrk:     {"dsyrk", "ssyrk"},
}

// tapeOp is one precompiled instruction.
type tapeOp struct {
	bytes        int64   // transfer volume
	dur          float64 // kernel duration
	slot         int32   // staging-slot index of alloc/transfer ops
	ev           int32   // completion-event slot, -1 when nothing waits
	depOff, depN int32   // window into Tape.deps
	code         uint8
	kernel       Kernel // kernel kind and dtype, indexing tapeNames
	dt           uint8
	dir          machine.LinkDir
}

// TapeFor returns the plan's replay tape for the given GPU model,
// compiling and caching it on first use. The cache is a single atomic
// slot: every runner replays a plan on one testbed, and a racing
// recompile produces an identical tape (compilation is pure), so last
// write wins safely.
func (p *Plan) TapeFor(gpu *machine.GPUSpec) *Tape {
	if t := p.tape.Load(); t != nil && t.gpu == gpu {
		return t
	}
	t := compileTape(p, gpu)
	p.tape.Store(t)
	return t
}

// compileTape lowers a plan to its flat enqueue tape. Kernel durations come
// from kernelDur, the same memoized model the cudart launch path consults,
// so replay timing is bit-identical.
func compileTape(p *Plan, gpu *machine.GPUSpec) *Tape {
	t := &Tape{
		gpu:     gpu,
		ops:     make([]tapeOp, len(p.Ops)),
		deps:    make([]int32, len(p.deps)),
		tailH2D: evSlotsOf(p, p.TailH2D),
		tailCmp: evSlotsOf(p, p.TailComp),
		evSlots: p.EvSlots,
		slots:   p.Slots,
	}
	for i, d := range p.deps {
		t.deps[i] = p.Ops[d].Ev
	}
	var memo kernelmodel.Memo
	for i := range p.Ops {
		o := &p.Ops[i]
		to := &t.ops[i]
		to.ev, to.depOff, to.depN, to.slot = o.Ev, o.depOff, o.depN, o.Slot
		switch o.Kind {
		case OpAlloc:
			to.code = tAlloc
		case OpFetch:
			to.code, to.dir = tFetch, machine.H2D
			to.bytes = tapeBytes(p, o)
		case OpWriteback:
			to.code, to.dir = tWriteback, machine.D2H
			to.bytes = tapeBytes(p, o)
		case OpKernel:
			to.code, to.kernel, to.dt = tKernel, o.Kernel, uint8(p.Dtype)
			to.dur = p.kernelDur(gpu, &memo, o)
		}
	}
	return t
}

// tapeBytes is the byte volume the checked transfer entry points would
// compute: window elements times the staging slot's element size.
func tapeBytes(p *Plan, o *Op) int64 {
	elems := int64(o.M)
	if o.N != 0 {
		elems *= int64(o.N)
	}
	return elems * p.Slots[o.Slot].Dtype.Size()
}

// evSlotsOf maps op ids to their completion-event slots.
func evSlotsOf(p *Plan, ids []int32) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = p.Ops[id].Ev
	}
	return out
}

// RunTape replays a precompiled tape onto tgt: the batched, timing-only
// counterpart of Run, issuing the identical stream-call sequence (and so
// the identical simulation events) with no per-op validation, resolution
// or duration lookups. The target must be unbacked; backed runs take Run.
//
// Like Run it returns the acquired staging buffers for the caller to
// release after the engine drains, releasing them itself on error.
//
//cocolint:hotpath
func (e *Executor) RunTape(t *Tape, tgt Target) ([]*cudart.DevBuffer, error) {
	// Event slots need no clearing between replays: a dependency edge always
	// references an op emitted earlier in the tape, so every slot is written
	// before it is read (stale pointers from a previous replay are never
	// observed). The replay property tests pin this.
	if cap(e.events) < t.evSlots {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more event slots than any before it
		e.events = make([]*cudart.Event, t.evSlots)
	}
	e.events = e.events[:t.evSlots]
	if cap(e.slots) < len(t.slots) {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more staging slots than any before it
		e.slots = make([]*cudart.DevBuffer, len(t.slots))
	}
	e.slots = e.slots[:len(t.slots)]
	e.pooled = e.pooled[:0]

	// Hoist the hot-loop state into locals: the loop body runs hundreds of
	// thousands of times per replay and the compiler cannot otherwise prove
	// these loads loop-invariant across the stream calls.
	events, deps, h2d, d2h, comp := e.events, t.deps, tgt.H2D, tgt.D2H, tgt.Comp
	for i := range t.ops {
		o := &t.ops[i]
		switch o.code {
		case tAlloc:
			s := t.slots[o.slot]
			//lint:ignore hotpath Alloc is an interface by design; the sched.Pool implementation's Acquire is proved free at its own hot root
			buf, err := tgt.Alloc.Acquire(s.Dtype, s.Elems)
			if err != nil {
				for _, b := range e.pooled {
					//lint:ignore hotpath acquire-failure unwind runs at most once per failed replay
					tgt.Alloc.Release(b)
				}
				e.pooled = e.pooled[:0]
				return nil, err
			}
			e.slots[o.slot] = buf
			//lint:ignore hotpath pooled reuses its backing array across replays; it grows only to the widest plan's slot count
			e.pooled = append(e.pooled, buf)
		case tFetch:
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				h2d.WaitEvent(events[d])
			}
			ev := h2d.TransferOp(o.dir, o.bytes, e.slots[o.slot])
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		case tWriteback:
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				d2h.WaitEvent(events[d])
			}
			ev := d2h.TransferOp(o.dir, o.bytes, e.slots[o.slot])
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		case tKernel:
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				comp.WaitEvent(events[d])
			}
			ev := comp.KernelOp(tapeNames[o.kernel][o.dt], o.dur)
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		}
	}

	for _, s := range t.tailH2D {
		tgt.H2D.WaitEvent(e.events[s])
	}
	for _, s := range t.tailCmp {
		tgt.Comp.WaitEvent(e.events[s])
	}
	return e.pooled, nil
}

// tapeSlot is the Plan field backing TapeFor's cache. The alias lives here
// (not in plan.go) so the atomic dependency stays with the tape code.
type tapeSlot = atomic.Pointer[Tape]
