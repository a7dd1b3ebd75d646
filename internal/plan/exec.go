package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
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
// the plan's Streams entries; op o runs on Streams[o.Stream]. Backed
// targets (real storage, functional runs) also bind each transfer's host
// window and each kernel's payload.
type Target struct {
	Streams []*cudart.Stream
	Alloc   Allocator
	Backed  bool
}

// Arg binds one plan operand at replay time: exactly one of Mat/Vec is set,
// per the plan routine's argument list.
type Arg struct {
	Mat *operand.Matrix
	Vec *operand.Vector
}

// Executor replays plans onto a target. It owns reusable scratch (the
// op-id -> event table, the slot bindings, the acquired-buffer list and
// the transfer window being bound), so replay allocates nothing once warm;
// like the scheduler context whose scratch it replaces, one executor
// supports one in-flight replay at a time.
type Executor struct {
	events []*cudart.Event
	slots  []*cudart.DevBuffer
	pooled []*cudart.DevBuffer
	win    cudart.Window
}

// RunTape replays the plan compiled into t onto tgt with the operands
// bound by args, in op order: each op's dependency waits first, in their
// recorded order, then its transfer or kernel. The sequence is the same on
// backed and timing-only targets, so both fire the identical simulation
// events; a backed target additionally binds each op's functional operands
// from the plan op at the same index (see window and payload).
//
// RunTape returns the staging buffers acquired from the allocator; the
// caller releases them after the engine drains. On error every acquired
// buffer has already been released.
//
//cocolint:hotpath
func (e *Executor) RunTape(t *Tape, tgt Target, args []Arg) ([]*cudart.DevBuffer, error) {
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
	events, deps, streams, backed := e.events, t.deps, tgt.Streams, tgt.Backed
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
		case tTransfer:
			s := streams[o.stream]
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				s.WaitEvent(events[d])
			}
			var w *cudart.Window
			if backed {
				w = e.window(&t.plan.Ops[i], args)
			}
			ev := s.TransferOp(o.dir, o.bytes, w)
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		case tKernel:
			s := streams[o.stream]
			for _, d := range deps[o.depOff : o.depOff+o.depN] {
				s.WaitEvent(events[d])
			}
			var payload cudart.Payload
			if backed {
				//lint:ignore hotpath backed targets only: one payload closure per kernel, which the kernel's arithmetic dwarfs
				payload = e.payload(t.plan, &t.plan.Ops[i], args)
			}
			ev := s.KernelOp(tapeNames[o.kernel][o.dt], o.dur, payload)
			if o.ev >= 0 {
				events[o.ev] = ev
			}
		}
	}

	for _, s := range t.tailH2D {
		streams[StreamH2D].WaitEvent(e.events[s])
	}
	for _, s := range t.tailCmp {
		streams[StreamComp].WaitEvent(e.events[s])
	}
	return e.pooled, nil
}

// window binds transfer op o (a fetch or a write-back) to its host window:
// the bound operand's element window at (A.Row, A.Col) and the staging
// slot it moves through. It fills and returns the executor's scratch
// window, which the transfer copies.
func (e *Executor) window(o *Op, args []Arg) *cudart.Window {
	w := &e.win
	*w = cudart.Window{Buf: e.slots[o.Slot], Rows: int64(o.M), Cols: 1}
	if o.N == 0 {
		// A vector transfer: M elements at slot offset K.
		w.F64, w.Off = args[o.A.Arg].Vec.HostF64[o.A.Row:], int64(o.K)
		return w
	}
	m := args[o.A.Arg].Mat
	w.F64, w.F32 = m.HostSlices(int(o.A.Row), int(o.A.Col))
	w.Cols, w.Ldh, w.Ldd = o.N, int32(m.HostLd), o.M
	return w
}

// resolve maps a kernel operand reference to (buffer, offset, ld).
func (e *Executor) resolve(args []Arg, r Ref) (*cudart.DevBuffer, int64, int) {
	if r.Slot >= 0 {
		// A slot ref's Row carries the ld and its Col the element offset.
		return e.slots[r.Slot], int64(r.Col), int(r.Row)
	}
	a := args[r.Arg]
	if a.Mat != nil {
		return a.Mat.Dev, int64(r.Row) + int64(r.Col)*int64(a.Mat.DevLd), a.Mat.DevLd
	}
	return a.Vec.Dev, int64(r.Row), 0
}

// payload binds kernel op o of p to its operands: the functional body the
// runtime runs when the kernel completes (nil for a dispatch op, which
// computes nothing). Operand windows lie inside their validated operands
// and staging slots by construction, so binding checks no bounds.
func (e *Executor) payload(p *Plan, o *Op, args []Arg) cudart.Payload {
	if o.Kernel == KDispatch {
		return nil
	}
	if p.Dtype == kernelmodel.F32 {
		return bindKernel[float32](e, p, o, args)
	}
	return bindKernel[float64](e, p, o, args)
}

// bindKernel is payload in element type T: one switch over the kernel
// kinds, each closing over its resolved operands and scalars.
func bindKernel[T blas.Float](e *Executor, p *Plan, o *Op, args []Arg) cudart.Payload {
	m, n, k := int(o.M), int(o.N), int(o.K)
	alpha, beta := T(p.opAlpha(o)), T(p.opBeta(o))
	side, uplo, transA, transB, diag := o.Side, o.Uplo, o.TransA, o.TransB, o.Diag
	a, lda := elems[T](e, args, o.A)
	switch o.Kernel {
	case KGemm:
		b, ldb := elems[T](e, args, o.B)
		c, ldc := elems[T](e, args, o.C)
		return func(pool *parallel.Pool) error {
			return blas.GemmParallel(pool, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		}
	case KGemv:
		x, _ := elems[T](e, args, o.B)
		y, _ := elems[T](e, args, o.C)
		return func(*parallel.Pool) error {
			return blas.Gemv(blas.NoTrans, m, n, alpha, a, lda, x, 1, beta, y, 1)
		}
	case KAxpy:
		y, _ := elems[T](e, args, o.C)
		return func(*parallel.Pool) error { return blas.Axpy(n, alpha, a, 1, y, 1) }
	case KPotrf:
		return func(pool *parallel.Pool) error { return blas.PotrfParallel(pool, uplo, n, a, lda) }
	case KGetrf:
		return func(*parallel.Pool) error { return blas.Getrf(n, a, lda) }
	case KTrsm:
		b, ldb := elems[T](e, args, o.B)
		return func(pool *parallel.Pool) error {
			return blas.TrsmParallel(pool, side, uplo, transA, diag, m, n, alpha, a, lda, b, ldb)
		}
	}
	// KSyrk: the payload writes the full tile (there is no packed
	// triangular storage); factorization plans never read the other
	// triangle, so uplo matters to the timing model only.
	c, ldc := elems[T](e, args, o.C)
	return func(pool *parallel.Pool) error {
		return blas.SyrkParallel(pool, transA, n, k, alpha, a, lda, beta, c, ldc)
	}
}

// elems resolves a kernel operand reference to the element storage from
// its window's first element on, and its leading dimension.
func elems[T blas.Float](e *Executor, args []Arg, r Ref) ([]T, int) {
	buf, off, ld := e.resolve(args, r)
	var s any
	if _, ok := any(T(0)).(float32); ok {
		s = buf.F32()
	} else {
		s = buf.F64()
	}
	return s.([]T)[off:], ld
}
