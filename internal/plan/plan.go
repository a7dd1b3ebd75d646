// Package plan defines the tile-operation IR shared by every scheduler in
// this repository: a compact, deterministic description of one routine
// invocation as a sequence of slot allocations, tile fetches, kernel
// launches and write-backs with explicit dependency edges and
// transfer-volume annotations.
//
// A plan is a pure function of its Key — the routine, geometry, tiling
// size, scalars and operand location vector of one invocation — and, for the two comparators that size their staging to the
// device, the free device memory; Build is the one planner entry point.
// A plan references operands symbolically (by argument index), never by
// pointer, so one plan can be replayed against any operand set of the same
// shape, on any sched.Context/cudart.Runtime, and memoized across
// repetitions.
//
// Replay preserves the simulation's event total order: the executor walks
// the op list in emission order, registers each op's dependency waits in
// their recorded order, and enqueues exactly the stream call the imperative
// scheduler would have issued — so the (at, seq) order of every discrete
// event, and therefore every timing result, is byte-identical to direct
// scheduling. A backed replay's functional work runs after the simulation,
// on the plan's data-hazard graph (Hazards), whose every edge the timing
// DAG implies, so its results equal those of the completion order too.
package plan

import (
	"fmt"
	"math"
	"strings"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
)

// Kind is the operation class of one plan op. Allocations touch no
// stream; every other op runs on the context stream its Stream field
// indexes.
type Kind uint8

// The op kinds.
const (
	OpAlloc Kind = iota
	OpFetch
	OpKernel
	OpWriteback
)

// The stream indices of the three-stream schedules: a context's first
// three streams carry the h2d transfers, the d2h transfers and the kernels,
// and the builders route each op to its kind's stream unless Graph.Pin
// routes it elsewhere (the cuBLASXt schedule pins each output tile's
// fetches, kernels and write-back to one worker stream).
const (
	StreamH2D uint8 = iota
	StreamD2H
	StreamComp
)

// kindStream is the stream the builders route an op of each kind to
// unless it is pinned.
var kindStream = [4]uint8{OpAlloc: 0, OpFetch: StreamH2D, OpKernel: StreamComp, OpWriteback: StreamD2H}

// Kernel is the kernel sub-kind of an OpKernel op.
type Kernel uint8

// The kernel sub-kinds. KDispatch models a comparator runtime's
// per-sub-kernel dispatch overhead and does not count as a sub-kernel.
// The factorization kinds (KPotrf, KGetrf, KTrsm, KSyrk) carry their own
// geometry and triangle flags per op, so one plan can mix kernel kinds —
// the task-graph generalization the tiled factorization planners build on.
const (
	KGemm Kernel = iota
	KGemv
	KAxpy
	KDispatch
	KPotrf
	KGetrf
	KTrsm
	KSyrk
)

// Ref locates one kernel operand: either a staging slot (Slot >= 0) or a
// window of the bound operand Arg (Slot < 0) at element coordinates
// (Row, Col); the executor resolves the window against the operand's
// device buffer and leading dimension at replay time, so plans stay
// layout-agnostic. A staging-slot reference needs no coordinates, so Row
// doubles as the slot's leading dimension (0 for vectors) and Col as the
// element offset into the slot (nonzero only for the chunks of a
// whole-vector slot).
type Ref struct {
	Slot     int32
	Arg      int8
	Row, Col int32
}

// slotRef builds a staging-slot reference; Row carries the leading
// dimension.
func slotRef(slot, ld int32) Ref { return Ref{Slot: slot, Row: ld} }

// slotOffRef builds a staging-slot reference at an element offset; Col
// carries the offset.
func slotOffRef(slot, off int32) Ref { return Ref{Slot: slot, Col: off} }

// argRef builds a bound-operand window reference.
func argRef(arg int8, row, col int32) Ref {
	return Ref{Slot: -1, Arg: arg, Row: row, Col: col}
}

// BetaSel selects a kernel op's beta scalar without storing a float64 per
// op: every schedule in this repository launches kernels whose beta is 0,
// 1 (accumulation) or the routine's own beta.
type BetaSel uint8

// The beta selectors.
const (
	BetaZero BetaSel = iota
	BetaOne
	BetaPlan
)

// AlphaSel selects a kernel op's alpha scalar the same way BetaSel selects
// beta: the zero value keeps the plan-level alpha (every flat BLAS planner),
// while the factorization planners pin individual tile kernels to +1 (panel
// solves) or -1 (trailing-matrix updates) independent of the plan scalar.
type AlphaSel uint8

// The alpha selectors.
const (
	AlphaPlan AlphaSel = iota
	AlphaOne
	AlphaNegOne
)

// Op is one plan operation. The encoding is deliberately compact — large
// no-reuse plans run to ~10^5 ops, and both planning cost and replay cache
// traffic scale with the op size — so kernel and transfer ops overlay the
// same fields and per-plan constants live on the Plan, not the op:
//
//   - Kernels carry the launch shape (M, N, K) and operand references
//     (A, B, C) of the matching cudart call; alpha is the plan's alpha,
//     beta is selected by Beta, and a dispatch op's duration is
//     BlasxDispatchS.
//   - Transfers (OpFetch, OpWriteback) move an M x N element window of one
//     bound operand through staging slot Slot, reusing A as the host-side
//     window (operand index and element coordinates); N == 0 marks a 1-D
//     vector transfer of M elements, which K places at an element offset
//     into the slot. The byte volume is derived, not stored (see
//     Plan.opBytes).
//   - Stream indexes the context stream the op runs on (see StreamH2D).
//
// Dependencies reference earlier op ids and are stored in the plan's
// shared arena.
type Op struct {
	Kind           Kind
	Kernel         Kernel
	TransA, TransB byte
	Beta           BetaSel
	Alpha          AlphaSel
	// Side, Uplo and Diag carry the BLAS triangle flags of the
	// factorization kernels (KTrsm uses all three, KPotrf/KSyrk use Uplo);
	// the flat BLAS kinds leave them zero.
	Side, Uplo, Diag byte
	Stream           uint8
	Slot             int32
	M, N, K          int32
	A, B, C          Ref
	depOff, depN     int32
	// Ev is the op's slot in the executor's completion-event table, or -1
	// when no later op waits on this op (most kernels and write-backs).
	// Keeping the table dense over referenced ops only — rather than one
	// entry per op — keeps the per-replay pointer scratch small.
	Ev int32
}

// opBeta resolves a kernel op's beta selector against the plan scalar.
func (p *Plan) opBeta(o *Op) float64 {
	switch o.Beta {
	case BetaZero:
		return 0
	case BetaOne:
		return 1
	}
	return scalar(p.Beta)
}

// opAlpha resolves a kernel op's alpha selector against the plan scalar.
func (p *Plan) opAlpha(o *Op) float64 {
	switch o.Alpha {
	case AlphaOne:
		return 1
	case AlphaNegOne:
		return -1
	}
	return scalar(p.Alpha)
}

// betaSel encodes a planner-computed beta, which is always +0, 1 or the
// plan's own beta, as a selector. The comparison is on bit patterns so
// replay reproduces the planner's float exactly (e.g. a beta of -0.0
// stays the plan scalar rather than collapsing to +0).
func betaSel(beta float64) BetaSel {
	switch math.Float64bits(beta) {
	case 0:
		return BetaZero
	case math.Float64bits(1):
		return BetaOne
	}
	return BetaPlan
}

// opBytes derives a transfer op's byte volume from its window shape and
// the plan dtype (vector transfers are always float64 in this repository's
// routines, which F64.Size covers). It is the one byte-volume function: the
// plan's volume annotations, its dump and its replay all read it.
func (p *Plan) opBytes(o *Op) int64 {
	if o.N == 0 {
		return int64(o.M) * p.Dtype.Size()
	}
	return int64(o.M) * int64(o.N) * p.Dtype.Size()
}

// Slot describes one staging buffer the executor acquires from the
// context's pool before the ops that reference it run.
type Slot struct {
	Dtype kernelmodel.Dtype
	Elems int64
}

// Key describes one routine invocation: the planners' only input (see
// Build), the header of the plan built from it, and every field a replay
// must match. Scalars are bit patterns, read as floats through scalar, so a
// replay is never accepted against a problem whose coefficients merely
// compare equal (+0 and -0 differ). Key is comparable, so a replay checks
// it with ==.
type Key struct {
	// Routine identifies the schedule family: "gemm", "gemm-noreuse",
	// "gemm-cublasxt", "gemm-blasx", "gemv", "axpy", "axpy-unified", or one
	// of the factorization task graphs "cholesky", "lu" and "trsm".
	Routine        string
	Dtype          kernelmodel.Dtype
	TransA, TransB byte
	// Diag is the unit-diagonal flag of a "trsm" invocation (blas.Unit or
	// blas.NonUnit); zero for every other routine.
	Diag       byte
	M, N, K, T int
	// Alpha and Beta are the math.Float64bits of the routine's scalars.
	Alpha, Beta uint64
	// Locs is the operand location vector in argument order (gemm: A, B,
	// C; gemv: A, x, y; axpy: x, y; cholesky, lu: A; trsm: A, B); NLocs is
	// its length, the number of operands a replay binds.
	Locs  [3]model.Loc
	NLocs int
}

// scalar decodes one of a key's bit-pattern scalars (Alpha or Beta): the
// one way the planners, Dump and payload binding read them.
func scalar(bits uint64) float64 { return math.Float64frombits(bits) }

// Build plans the invocation k; it is the one planner entry point. The
// key must be validated (the sched requests do that). freeBytes is the
// device memory free at plan time: the no-reuse and cuBLASXt schedules
// size their staging to it, so their plans embed it; every other routine
// ignores it. An unknown routine is an error.
func Build(k Key, freeBytes int64) (*Plan, error) {
	g := &Graph{p: &Plan{Key: k}, route: kindStream}
	switch k.Routine {
	case "gemm", "gemm-blasx":
		buildGemm(g)
	case "gemm-noreuse":
		buildGemmNoReuse(g, freeBytes)
	case "gemm-cublasxt":
		buildGemmXt(g, freeBytes)
	case "gemv":
		buildGemv(g)
	case "axpy":
		buildAxpy(g)
	case "axpy-unified":
		buildAxpyUnified(g)
	case "cholesky":
		buildCholesky(g)
	case "lu":
		buildLU(g)
	case "trsm":
		buildTrsm(g)
	default:
		return nil, fmt.Errorf("plan: unknown routine %q", k.Routine)
	}
	return g.Finish(), nil
}

// Plan is one routine invocation in IR form: the key it was built for,
// whose fields read as the plan's header (p.Routine, p.M, p.T, ...), and
// its ops.
type Plan struct {
	Key

	Slots []Slot
	Ops   []Op
	deps  []int32

	// Transfer-volume annotations: the totals the schedule will move and
	// launch, computed at plan time (not accumulated during execution).
	Subkernels         int64
	BytesH2D, BytesD2H int64

	// EvSlots is the size of the executor's completion-event table: the
	// number of ops some later op depends on.
	EvSlots int
	// Streams is the number of context streams the plan indexes: one more
	// than the highest Op.Stream, and at least the three of the
	// three-stream schedules.
	Streams int

	// hazards caches the plan's data-hazard graph (see Hazards). A plan
	// must not be copied by value.
	hazards hazardCache
}

// Deps returns op i's dependency list: ids of earlier ops whose completion
// events must be waited on, in registration order.
func (p *Plan) Deps(i int) []int32 {
	o := &p.Ops[i]
	return p.deps[o.depOff : o.depOff+o.depN]
}

// Volumes summarizes a plan's annotated traffic.
type Volumes struct {
	BytesH2D, BytesD2H int64
	Subkernels         int64
}

// Volumes returns the plan's transfer-volume annotations.
func (p *Plan) Volumes() Volumes {
	return Volumes{BytesH2D: p.BytesH2D, BytesD2H: p.BytesD2H, Subkernels: p.Subkernels}
}

// KernelSeconds sums the modeled execution time of every kernel op on gpu
// in op order — the compute term of the Werkhoven-style full-overlap lower
// bound max(kernel sum, t_h2d, t_d2h). Each op's duration is the one a
// replay on gpu fires, taken from memo, so the sum costs one model
// evaluation per distinct kernel shape. Dispatch ops contribute
// their fixed duration; transfer ops contribute nothing.
func (p *Plan) KernelSeconds(gpu *machine.GPUSpec, memo *kernelmodel.Memo) float64 {
	sum := 0.0
	for i := range p.Ops {
		if o := &p.Ops[i]; o.Kind == OpKernel {
			sum += p.kernelDur(gpu, memo, o)
		}
	}
	return sum
}

// kernelDur returns kernel op o's modeled duration on gpu through memo: the
// one per-op duration function of KernelSeconds and Executor.Run.
func (p *Plan) kernelDur(gpu *machine.GPUSpec, memo *kernelmodel.Memo, o *Op) float64 {
	s := kernelmodel.Shape{Dtype: p.Dtype}
	switch o.Kernel {
	case KDispatch:
		return BlasxDispatchS
	case KGemm:
		s.Kind, s.M, s.N, s.K = kernelmodel.KindGemm, int(o.M), int(o.N), int(o.K)
	case KGemv:
		s.Kind, s.M, s.N = kernelmodel.KindGemv, int(o.M), int(o.N)
	case KAxpy:
		s.Kind, s.N = kernelmodel.KindAxpy, int(o.N)
	case KPotrf:
		s.Kind, s.N = kernelmodel.KindPotrf, int(o.N)
	case KGetrf:
		s.Kind, s.N = kernelmodel.KindGetrf, int(o.N)
	case KTrsm:
		s.Kind, s.Side, s.M, s.N = kernelmodel.KindTrsm, o.Side, int(o.M), int(o.N)
	case KSyrk:
		s.Kind, s.N, s.K = kernelmodel.KindSyrk, int(o.N), int(o.K)
	}
	return memo.Time(gpu, s)
}

// TransferOps counts the plan's fetch and write-back operations. Each
// transfer pays the link's per-transfer setup latency once, so the counts
// turn the byte volumes into link-time predictions.
func (p *Plan) TransferOps() (h2d, d2h int) {
	for i := range p.Ops {
		switch p.Ops[i].Kind {
		case OpFetch:
			h2d++
		case OpWriteback:
			d2h++
		}
	}
	return h2d, d2h
}

// finish assigns the completion-event slots: every op referenced by a
// dependency edge gets a dense table index in first-reference order, all
// others get -1. Called once by each planner after emission.
func finish(p *Plan) *Plan {
	for i := range p.Ops {
		p.Ops[i].Ev = -1
	}
	n := int32(0)
	for _, d := range p.deps {
		if p.Ops[d].Ev < 0 {
			p.Ops[d].Ev = n
			n++
		}
	}
	p.EvSlots = int(n)
	p.Streams = max(p.Streams, int(StreamComp)+1)
	return p
}

// ArgNames returns the operand letters of a routine, in argument order,
// for dumps and errors.
func ArgNames(routine string) []string {
	switch routine {
	case "gemv":
		return []string{"A", "x", "y"}
	case "axpy", "axpy-unified":
		return []string{"x", "y"}
	case "cholesky", "lu":
		return []string{"A"}
	case "trsm":
		return []string{"A", "B"}
	}
	return []string{"A", "B", "C"}
}

// locString renders a location vector as compact letters (H/D).
func locString(locs []model.Loc) string {
	var sb strings.Builder
	for _, l := range locs {
		if l == model.OnDevice {
			sb.WriteByte('D')
		} else {
			sb.WriteByte('H')
		}
	}
	return sb.String()
}

// transChar renders one transpose flag ('n' or 't').
func transChar(t byte) byte {
	if t == blas.Trans {
		return 't'
	}
	return 'n'
}

// transString renders a transpose pair ("nn", "nt", ...).
func transString(ta, tb byte) string {
	return string([]byte{transChar(ta), transChar(tb)})
}

// refString renders a kernel operand reference.
func refString(r Ref, names []string) string {
	if r.Slot >= 0 {
		switch {
		case r.Row > 0: // a slot ref's Row carries the leading dimension
			return fmt.Sprintf("s%d(ld=%d)", r.Slot, r.Row)
		case r.Col > 0: // and its Col the element offset
			return fmt.Sprintf("s%d+%d", r.Slot, r.Col)
		}
		return fmt.Sprintf("s%d", r.Slot)
	}
	return fmt.Sprintf("%s[%d,%d]", names[r.Arg], r.Row, r.Col)
}

// Dump renders the plan as deterministic text: one line per slot and op,
// with ids, kinds, shapes, dependency edges and byte volumes. A plan that
// routes any op off its kind's stream also names every op's stream. The
// format is stable — golden tests and the cocomodel -dump-plan flag both
// pin it.
func (p *Plan) Dump() string {
	var sb strings.Builder
	names := ArgNames(p.Routine)
	pinned := false
	for i := range p.Ops {
		if o := &p.Ops[i]; o.Kind != OpAlloc && o.Stream != kindStream[o.Kind] {
			pinned = true
		}
	}
	fmt.Fprintf(&sb, "plan %s dtype=%s trans=%s m=%d n=%d k=%d T=%d alpha=%g beta=%g locs=%s\n",
		p.Routine, p.Dtype, transString(p.TransA, p.TransB),
		p.M, p.N, p.K, p.T, scalar(p.Alpha), scalar(p.Beta), locString(p.Locs[:p.NLocs]))
	fmt.Fprintf(&sb, "slots %d\n", len(p.Slots))
	for i, s := range p.Slots {
		fmt.Fprintf(&sb, "  s%d %s elems=%d\n", i, s.Dtype, s.Elems)
	}
	fmt.Fprintf(&sb, "ops %d\n", len(p.Ops))
	for i := range p.Ops {
		fmt.Fprintf(&sb, "  o%d %s", i, opString(p, int32(i), names))
		if o := &p.Ops[i]; pinned && o.Kind != OpAlloc {
			fmt.Fprintf(&sb, " stream=%d", o.Stream)
		}
		if deps := p.Deps(i); len(deps) > 0 {
			sb.WriteString(" deps=[")
			for j, d := range deps {
				if j > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "o%d", d)
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "volumes h2d=%d d2h=%d subkernels=%d\n",
		p.BytesH2D, p.BytesD2H, p.Subkernels)
	return sb.String()
}

// opString renders one op (without id or deps).
func opString(p *Plan, i int32, names []string) string {
	o := &p.Ops[i]
	switch o.Kind {
	case OpAlloc:
		return fmt.Sprintf("alloc s%d", o.Slot)
	case OpFetch:
		if o.N == 0 {
			return fmt.Sprintf("fetch %s[%d:+%d] -> %s bytes=%d",
				names[o.A.Arg], o.A.Row, o.M, refString(slotOffRef(o.Slot, o.K), names), p.opBytes(o))
		}
		return fmt.Sprintf("fetch %s[%d,%d %dx%d] -> s%d bytes=%d",
			names[o.A.Arg], o.A.Row, o.A.Col, o.M, o.N, o.Slot, p.opBytes(o))
	case OpWriteback:
		if o.N == 0 {
			return fmt.Sprintf("writeback %s -> %s[%d:+%d] bytes=%d",
				refString(slotOffRef(o.Slot, o.K), names), names[o.A.Arg], o.A.Row, o.M, p.opBytes(o))
		}
		return fmt.Sprintf("writeback s%d -> %s[%d,%d %dx%d] bytes=%d",
			o.Slot, names[o.A.Arg], o.A.Row, o.A.Col, o.M, o.N, p.opBytes(o))
	}
	switch o.Kernel {
	case KDispatch:
		return fmt.Sprintf("dispatch dur=%gs", BlasxDispatchS)
	case KGemm:
		return fmt.Sprintf("gemm %s m=%d n=%d k=%d alpha=%g beta=%g A=%s B=%s C=%s",
			transString(o.TransA, o.TransB), o.M, o.N, o.K, p.opAlpha(o), p.opBeta(o),
			refString(o.A, names), refString(o.B, names), refString(o.C, names))
	case KGemv:
		return fmt.Sprintf("gemv m=%d n=%d alpha=%g beta=%g A=%s x=%s y=%s",
			o.M, o.N, p.opAlpha(o), p.opBeta(o),
			refString(o.A, names), refString(o.B, names), refString(o.C, names))
	case KPotrf:
		return fmt.Sprintf("potrf uplo=%c n=%d A=%s", o.Uplo, o.N, refString(o.A, names))
	case KGetrf:
		return fmt.Sprintf("getrf n=%d A=%s", o.N, refString(o.A, names))
	case KTrsm:
		return fmt.Sprintf("trsm side=%c uplo=%c trans=%c diag=%c m=%d n=%d alpha=%g A=%s B=%s",
			o.Side, o.Uplo, transChar(o.TransA), o.Diag, o.M, o.N, p.opAlpha(o),
			refString(o.A, names), refString(o.B, names))
	case KSyrk:
		return fmt.Sprintf("syrk uplo=%c trans=%c n=%d k=%d alpha=%g beta=%g A=%s C=%s",
			o.Uplo, transChar(o.TransA), o.N, o.K, p.opAlpha(o), p.opBeta(o),
			refString(o.A, names), refString(o.C, names))
	}
	return fmt.Sprintf("axpy n=%d alpha=%g x=%s y=%s",
		o.N, p.opAlpha(o), refString(o.A, names), refString(o.C, names))
}
