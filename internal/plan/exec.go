package plan

import (
	"errors"
	"fmt"
	"slices"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
)

// Allocator is the staging-buffer pool a plan replays against (implemented
// by sched.Context).
type Allocator interface {
	Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error)
	Release(b *cudart.DevBuffer)
}

// Target is the execution surface a plan replays onto: the streams and the
// staging allocator of one scheduler context. Streams must hold at least
// the plan's Streams entries; op o runs on Streams[o.Stream]. A backed
// target (real storage, functional runs) also names the runtime whose Sync
// runs the replay's functional job; timing-only targets leave Jobs nil.
type Target struct {
	Streams []*cudart.Stream
	Alloc   Allocator
	Jobs    *cudart.Runtime
}

// Arg binds one plan operand at replay time: exactly one of Mat/Vec is set,
// per the plan routine's argument list.
type Arg struct {
	Mat *operand.Matrix
	Vec *operand.Vector
}

// Executor replays plans onto a target. It owns reusable scratch (the
// op-id -> event table, the slot bindings and the acquired-buffer list) and
// the memo of the kernel durations it has modeled, so a timing-only replay
// allocates nothing once warm; like the scheduler context whose scratch it
// replaces, one executor supports one in-flight replay at a time.
type Executor struct {
	events []*cudart.Event
	slots  []*cudart.DevBuffer
	pooled []*cudart.DevBuffer
	memo   kernelmodel.Memo
}

// kernelNames maps a kernel op's kind and the plan dtype (kernelmodel.F64,
// kernelmodel.F32) to the runtime's kernel-name index.
var kernelNames = [...][2]cudart.KernelName{
	KGemm:     {cudart.NameDgemm, cudart.NameSgemm},
	KGemv:     {cudart.NameGemv, cudart.NameGemv},
	KAxpy:     {cudart.NameDaxpy, cudart.NameDaxpy},
	KDispatch: {cudart.NameDispatch, cudart.NameDispatch},
	KPotrf:    {cudart.NameDpotrf, cudart.NameSpotrf},
	KGetrf:    {cudart.NameDgetrf, cudart.NameSgetrf},
	KTrsm:     {cudart.NameDtrsm, cudart.NameStrsm},
	KSyrk:     {cudart.NameDsyrk, cudart.NameSsyrk},
}

// Run replays plan p onto tgt with the operands bound by args, in op
// order: each op's dependency waits first, in their recorded order, then
// its transfer (of opBytes bytes) or kernel (of its kernelDur on gpu, the
// GPU model of tgt's device). The simulation is timing-only, so backed and
// timing-only targets fire the identical events. A backed target also gets
// one job registered with tgt.Jobs: the plan, args and the staging buffers
// this replay bound, which the runtime's Sync runs after the engine drains
// (see job).
//
// Run returns the staging buffers acquired from the allocator; the caller
// releases them after the engine drains and the job has run. On error
// every acquired buffer has already been released.
//
//cocolint:hotpath
func (e *Executor) Run(p *Plan, gpu *machine.GPUSpec, tgt Target, args []Arg) ([]*cudart.DevBuffer, error) {
	// Event slots need no clearing between replays: a dependency edge always
	// references an op emitted earlier in the plan, so every slot is written
	// before it is read (stale pointers from a previous replay are never
	// observed). The replay property tests pin this.
	if cap(e.events) < p.EvSlots {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more event slots than any before it
		e.events = make([]*cudart.Event, p.EvSlots)
	}
	e.events = e.events[:p.EvSlots]
	if cap(e.slots) < len(p.Slots) {
		//lint:ignore hotpath grow-once scratch: reallocated only when a replay needs more staging slots than any before it
		e.slots = make([]*cudart.DevBuffer, len(p.Slots))
	}
	e.slots = e.slots[:len(p.Slots)]
	e.pooled = e.pooled[:0]

	// Hoist the hot-loop state into locals: the loop body runs hundreds of
	// thousands of times per replay and the compiler cannot otherwise prove
	// these loads loop-invariant across the stream calls.
	events, ops, deps, streams, dt := e.events, p.Ops, p.deps, tgt.Streams, p.Dtype
	for i := range ops {
		o := &ops[i]
		if o.Kind == OpAlloc {
			s := p.Slots[o.Slot]
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
			e.slots[o.Slot] = buf
			//lint:ignore hotpath pooled reuses its backing array across replays; it grows only to the widest plan's slot count
			e.pooled = append(e.pooled, buf)
			continue
		}
		s := streams[o.Stream]
		for _, d := range deps[o.depOff : o.depOff+o.depN] {
			s.WaitEvent(events[ops[d].Ev])
		}
		var ev *cudart.Event
		switch o.Kind {
		case OpFetch:
			ev = s.TransferOp(machine.H2D, p.opBytes(o))
		case OpWriteback:
			ev = s.TransferOp(machine.D2H, p.opBytes(o))
		default:
			//lint:ignore hotpath the memo's map gains an entry once per new kernel shape and GPU model; a warm executor only reads it
			ev = s.KernelOp(kernelNames[o.Kernel][dt], p.kernelDur(gpu, &e.memo, o))
		}
		if o.Ev >= 0 {
			events[o.Ev] = ev
		}
	}

	if tgt.Jobs != nil {
		//lint:ignore hotpath backed targets only: one job per replay, which its arithmetic dwarfs
		e.addJob(p, tgt.Jobs, args)
	}
	return e.pooled, nil
}

// addJob registers the functional job of a backed replay of p with rt: the
// plan's hazard graph (built on its first backed replay), and copies of
// the operands and of the staging buffers the replay bound, so that the
// executor's scratch is free for the next replay.
func (e *Executor) addJob(p *Plan, rt *cudart.Runtime, args []Arg) {
	j := &job{p: p, g: p.Hazards(), args: slices.Clone(args), slots: slices.Clone(e.slots)}
	rt.AddJob(j.run)
}

// job is the functional side of one backed replay: every transfer's data
// movement and every kernel's arithmetic, run on the hazard graph.
type job struct {
	p     *Plan
	g     *parallel.DAG
	args  []Arg
	slots []*cudart.DevBuffer
}

// run executes the job's ops on the pool as the hazard graph allows (see
// parallel.RunDAG): a lone ready op gets the whole pool for its payload,
// and ops that run side by side run inline. No op that depends on a failed
// op runs, so no data derived from a failed tile reaches the caller; the
// error is the failed op with the lowest id.
func (j *job) run(pool *parallel.Pool) error {
	return parallel.RunDAG(pool, j.g, j.op)
}

// op performs plan op i: a transfer's data movement or a kernel's
// arithmetic. Allocations and dispatch ops do nothing.
func (j *job) op(i int, pool *parallel.Pool) error {
	o := &j.p.Ops[i]
	var err error
	switch o.Kind {
	case OpFetch:
		w := j.window(o)
		w.Move(machine.H2D)
	case OpWriteback:
		w := j.window(o)
		w.Move(machine.D2H)
	case OpKernel:
		if j.p.Dtype == kernelmodel.F32 {
			err = runKernel[float32](j, o, pool)
		} else {
			err = runKernel[float64](j, o, pool)
		}
	}
	if err != nil {
		return j.p.opError(i, err)
	}
	return nil
}

// opError names failed op i and its kernel kind. A failed tile
// factorization also names its tile and renumbers the failing minor or
// pivot from the tile's first row to the whole matrix's.
func (p *Plan) opError(i int, err error) error {
	o := &p.Ops[i]
	var fe *blas.FactorError
	if !errors.As(err, &fe) {
		return fmt.Errorf("plan op %d (%s): %w", i, kernelKinds[o.Kernel], err)
	}
	at := o.A // the tile's operand window, or that of the fetch filling its slot
	for k := 0; at.Slot >= 0 && k < i; k++ {
		if f := &p.Ops[k]; f.Kind == OpFetch && f.Slot == at.Slot {
			at = f.A
		}
	}
	return fmt.Errorf("plan op %d (%s) tile (%d,%d): %w", i, kernelKinds[o.Kernel], int(at.Row)/p.T,
		int(at.Col)/p.T, &blas.FactorError{Err: fe.Err, Index: int(at.Row) + fe.Index})
}

// kernelKinds names the kernel kinds in errors.
var kernelKinds = [...]string{KGemm: "gemm", KGemv: "gemv", KAxpy: "axpy", KDispatch: "dispatch",
	KPotrf: "potrf", KGetrf: "getrf", KTrsm: "trsm", KSyrk: "syrk"}

// window is transfer op o's (a fetch or a write-back) host window: the
// bound operand's element window at (A.Row, A.Col) and the staging slot it
// moves through.
func (j *job) window(o *Op) cudart.Window {
	w := cudart.Window{Buf: j.slots[o.Slot], Rows: int64(o.M), Cols: 1}
	if o.N == 0 {
		// A vector transfer: M elements at slot offset K.
		w.F64, w.Off = j.args[o.A.Arg].Vec.HostF64[o.A.Row:], int64(o.K)
		return w
	}
	m := j.args[o.A.Arg].Mat
	w.F64, w.F32 = m.HostSlices(int(o.A.Row), int(o.A.Col))
	w.Cols, w.Ldh, w.Ldd = o.N, int32(m.HostLd), o.M
	return w
}

// resolve maps a kernel operand reference to (buffer, offset, ld).
func (j *job) resolve(r Ref) (*cudart.DevBuffer, int64, int) {
	if r.Slot >= 0 {
		// A slot ref's Row carries the ld and its Col the element offset.
		return j.slots[r.Slot], int64(r.Col), int(r.Row)
	}
	a := j.args[r.Arg]
	if a.Mat != nil {
		return a.Mat.Dev, int64(r.Row) + int64(r.Col)*int64(a.Mat.DevLd), a.Mat.DevLd
	}
	return a.Vec.Dev, int64(r.Row), 0
}

// runKernel computes kernel op o in element type T on its resolved
// operands, passing pool to the payloads that split their work (a nil pool
// runs them inline). Operand windows lie inside their validated operands
// and staging slots by construction, so it checks no bounds. A dispatch op
// computes nothing.
func runKernel[T blas.Float](j *job, o *Op, pool *parallel.Pool) error {
	m, n, k := int(o.M), int(o.N), int(o.K)
	alpha, beta := T(j.p.opAlpha(o)), T(j.p.opBeta(o))
	switch o.Kernel {
	case KDispatch:
		return nil
	case KGemm:
		a, lda := elems[T](j, o.A)
		b, ldb := elems[T](j, o.B)
		c, ldc := elems[T](j, o.C)
		return blas.GemmParallel(pool, o.TransA, o.TransB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case KGemv:
		a, lda := elems[T](j, o.A)
		x, _ := elems[T](j, o.B)
		y, _ := elems[T](j, o.C)
		return blas.Gemv(blas.NoTrans, m, n, alpha, a, lda, x, 1, beta, y, 1)
	case KAxpy:
		x, _ := elems[T](j, o.A)
		y, _ := elems[T](j, o.C)
		return blas.Axpy(n, alpha, x, 1, y, 1)
	case KPotrf:
		a, lda := elems[T](j, o.A)
		return blas.PotrfParallel(pool, o.Uplo, n, a, lda)
	case KGetrf:
		a, lda := elems[T](j, o.A)
		return blas.Getrf(n, a, lda)
	case KTrsm:
		a, lda := elems[T](j, o.A)
		b, ldb := elems[T](j, o.B)
		return blas.TrsmParallel(pool, o.Side, o.Uplo, o.TransA, o.Diag, m, n, alpha, a, lda, b, ldb)
	}
	// KSyrk: the payload writes the full tile (there is no packed
	// triangular storage); factorization plans never read the other
	// triangle, so uplo matters to the timing model only.
	a, lda := elems[T](j, o.A)
	c, ldc := elems[T](j, o.C)
	return blas.SyrkParallel(pool, o.TransA, n, k, alpha, a, lda, beta, c, ldc)
}

// elems resolves a kernel operand reference to the element storage from
// its window's first element on, and its leading dimension.
func elems[T blas.Float](j *job, r Ref) ([]T, int) {
	buf, off, ld := j.resolve(r)
	var s any
	if _, ok := any(T(0)).(float32); ok {
		s = buf.F32()
	} else {
		s = buf.F64()
	}
	return s.([]T)[off:], ld
}
