package plan

import (
	"sync"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
)

// Tape is a plan precompiled for replay on one GPU model: a flat
// instruction array with every per-op timing decision already taken. It
// stores the outcome (stream code, byte volume, kernel name and duration,
// dependency event slots) in contiguous slices, so replay is a tight loop
// over plain data with no per-op dispatch beyond one switch on the
// precomputed code.
//
// Tape op i is plan op i. Functional operands are not compiled in: a
// backed replay registers the plan itself as its runtime's job, and a
// timing-only replay never looks.
type Tape struct {
	plan    *Plan
	gpu     *machine.GPUSpec // kernel durations are GPU-model-specific
	ops     []tapeOp
	deps    []int32 // dependency edges as completion-event slots
	tailH2D []int32 // tail waits as completion-event slots
	tailCmp []int32
	evSlots int
	slots   []Slot
}

// tapeOp codes: what the op enqueues.
const (
	tAlloc uint8 = iota
	tTransfer
	tKernel
)

// tapeNames maps a tapeOp's kernel kind and dtype (kernelmodel.F64,
// kernelmodel.F32) to the runtime's kernel-name index; keeping the string
// out of the op makes the instruction array pointer-free, so tapes are
// never scanned by the garbage collector and their arenas zero faster.
var tapeNames = [...][2]cudart.KernelName{
	KGemm:     {cudart.NameDgemm, cudart.NameSgemm},
	KGemv:     {cudart.NameGemv, cudart.NameGemv},
	KAxpy:     {cudart.NameDaxpy, cudart.NameDaxpy},
	KDispatch: {cudart.NameDispatch, cudart.NameDispatch},
	KPotrf:    {cudart.NameDpotrf, cudart.NameSpotrf},
	KGetrf:    {cudart.NameDgetrf, cudart.NameSgetrf},
	KTrsm:     {cudart.NameDtrsm, cudart.NameStrsm},
	KSyrk:     {cudart.NameDsyrk, cudart.NameSsyrk},
}

// tapeOp is one precompiled instruction.
type tapeOp struct {
	bytes        int64   // transfer volume
	dur          float64 // kernel duration
	slot         int32   // staging-slot index of alloc/transfer ops
	ev           int32   // completion-event slot, -1 when nothing waits
	depOff, depN int32   // window into Tape.deps
	code         uint8
	stream       uint8  // index into Target.Streams
	kernel       Kernel // kernel kind and dtype, indexing tapeNames
	dt           uint8
	dir          machine.LinkDir
}

// TapeFor returns the plan's replay tape for the given GPU model,
// compiling and caching it on first use. It compiles at most once per
// (plan, GPU model), even when concurrent replays ask for the same tape
// first: one caller compiles under the cache's lock and the others wait
// for its tape, so every caller gets the same pointer.
func (p *Plan) TapeFor(gpu *machine.GPUSpec) *Tape {
	c := &p.tape
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tapes {
		if t.gpu == gpu {
			return t
		}
	}
	t := compileTape(p, gpu)
	c.tapes = append(c.tapes, t)
	return t
}

// compileTape lowers a plan to its flat enqueue tape. Kernel durations come
// from kernelDur, the one per-op duration function.
func compileTape(p *Plan, gpu *machine.GPUSpec) *Tape {
	t := &Tape{
		plan:    p,
		gpu:     gpu,
		ops:     freeTape.take(len(p.Ops))[:len(p.Ops)],
		deps:    freeDeps.take(len(p.deps))[:len(p.deps)],
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
		to.stream = o.Stream
		switch o.Kind {
		case OpAlloc:
			to.code = tAlloc
		case OpFetch:
			to.code, to.dir = tTransfer, machine.H2D
			to.bytes = tapeBytes(p, o)
		case OpWriteback:
			to.code, to.dir = tTransfer, machine.D2H
			to.bytes = tapeBytes(p, o)
		case OpKernel:
			to.code, to.kernel, to.dt = tKernel, o.Kernel, uint8(p.Dtype)
			to.dur = p.kernelDur(gpu, &memo, o)
		}
	}
	return t
}

// tapeBytes is a transfer's byte volume: window elements times the staging
// slot's element size.
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

// tapeCache is the Plan field backing TapeFor and Hazards: the compiled
// tapes, one per GPU model, and the data-hazard graph, which only backed
// replays build, guarded by mu. It lives here (not in plan.go) so the
// synchronization stays with the tape code.
type tapeCache struct {
	mu      sync.Mutex
	tapes   []*Tape
	hazards *parallel.DAG
}
