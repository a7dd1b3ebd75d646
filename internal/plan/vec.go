package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// GemvSpec parameterizes the level-2 planner (y = alpha*A*x + beta*y,
// float64, A stored MxN).
type GemvSpec struct {
	M, N             int
	Alpha, Beta      float64
	LocA, LocX, LocY model.Loc
	T                int
}

// BuildGemv emits the level-2 schedule: A tiles fetched per sub-kernel, x
// chunks fetched once and reused down each tile column, y chunks
// accumulating on the device and written back once per tile row.
func BuildGemv(spec GemvSpec) *Plan {
	T := spec.T
	mt := ceil(spec.M, T)
	nt := ceil(spec.N, T)

	p := &Plan{
		Routine: "gemv", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: spec.M, N: spec.N, T: T,
		Alpha: spec.Alpha, Beta: spec.Beta,
		Locs: []model.Loc{spec.LocA, spec.LocX, spec.LocY},
	}
	g := NewGraph(p)

	// x chunks: fetched once, reused by every tile row.
	xChunks := make([]tileState, nt)
	getX := func(tj, n int) *tileState {
		ch := &xChunks[tj]
		if ch.live {
			return ch
		}
		ch.live = true
		if spec.LocX == model.OnDevice {
			ch.ref = argRef(1, int32(tj*T), 0)
			ch.ready = NoOp
			return ch
		}
		slot := g.Slot(kernelmodel.F64, int64(n))
		g.Alloc(slot)
		ch.ref = slotRef(slot, 0)
		ch.ready = g.FetchVec(1, int32(tj*T), int32(n), slot, 0)
		return ch
	}

	lastComp := NoOp
	var depBuf []OpID

	for ti := 0; ti < mt; ti++ {
		rows := min(T, spec.M-ti*T)
		var yRef Ref
		ySlot := int32(-1)
		yReady := NoOp
		if spec.LocY == model.OnDevice {
			yRef = argRef(2, int32(ti*T), 0)
		} else {
			ySlot = g.Slot(kernelmodel.F64, int64(rows))
			g.Alloc(ySlot)
			yRef = slotRef(ySlot, 0)
			if spec.Beta != 0 {
				yReady = g.FetchVec(2, int32(ti*T), int32(rows), ySlot, 0)
			}
		}

		for tj := 0; tj < nt; tj++ {
			cols := min(T, spec.N-tj*T)
			xc := getX(tj, cols)
			aRef := argRef(0, int32(ti*T), int32(tj*T))
			aReady := NoOp
			if spec.LocA == model.OnHost {
				slot := g.Slot(kernelmodel.F64, int64(rows)*int64(cols))
				g.Alloc(slot)
				aReady = g.Fetch(0, int32(ti*T), int32(tj*T), int32(rows), int32(cols), slot)
				aRef = slotRef(slot, int32(rows))
			}

			// Compute-stream waits, in registration order: the A fetch, the
			// x chunk, then (first column only) the y chunk.
			depBuf = append(depBuf[:0], aReady, xc.ready)
			beta := 1.0
			if tj == 0 {
				depBuf = append(depBuf, yReady)
				beta = spec.Beta
				if spec.LocY == model.OnHost && spec.Beta == 0 {
					beta = 0
				}
			}
			lastComp = g.Gemv(int32(rows), int32(cols), betaSel(beta),
				aRef, xc.ref, yRef, depBuf...)
		}

		if spec.LocY == model.OnHost {
			g.WritebackVec(ySlot, 0, 2, int32(ti*T), int32(rows), lastComp)
		}
	}
	return g.Finish()
}

// AxpySpec parameterizes the level-1 planner (y += alpha*x, float64).
type AxpySpec struct {
	N          int
	Alpha      float64
	LocX, LocY model.Loc
	T          int
}

// BuildAxpy emits the level-1 schedule: independent 1-D chunks, each with
// its own staging slots, pipelined across the three streams.
func BuildAxpy(spec AxpySpec) *Plan {
	p := &Plan{
		Routine: "axpy", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		N: spec.N, T: spec.T,
		Alpha: spec.Alpha,
		Locs:  []model.Loc{spec.LocX, spec.LocY},
	}
	g := NewGraph(p)

	chunks := ceil(spec.N, spec.T)
	for ci := 0; ci < chunks; ci++ {
		off := ci * spec.T
		n := min(spec.T, spec.N-off)

		chunk := func(arg int8) (Ref, OpID) {
			if p.Locs[arg] == model.OnDevice {
				return argRef(arg, int32(off), 0), NoOp
			}
			slot := g.Slot(kernelmodel.F64, int64(n))
			g.Alloc(slot)
			ready := g.FetchVec(arg, int32(off), int32(n), slot, 0)
			return slotRef(slot, 0), ready
		}
		xRef, xReady := chunk(0)
		yRef, yReady := chunk(1)

		kid := g.Axpy(int32(n), xRef, yRef, xReady, yReady)

		if spec.LocY == model.OnHost {
			g.WritebackVec(yRef.Slot, 0, 1, int32(off), int32(n), kid)
		}
	}
	return g.Finish()
}

// BuildAxpyUnified emits the unified-memory daxpy baseline the paper
// compares CoCoPeLia's level-1 path against: CUDA unified memory with
// prefetching. Each host-resident operand gets a whole-vector managed
// mirror. Prefetch hints stream its pages to the device in spec.T-element
// chunks on the h2d stream ahead of each chunk's kernel, so h2d overlaps
// compute, but at a fixed small granularity that pays the per-transfer
// latency far more often than a tiled scheduler. The written pages of y
// migrate back on demand only when the host touches y, after the last
// kernel: the d2h chunks all queue behind the whole kernel sequence and
// never overlap compute. Device-resident operands need no migration.
func BuildAxpyUnified(spec AxpySpec) *Plan {
	T := spec.T
	p := &Plan{
		Routine: "axpy-unified", Dtype: kernelmodel.F64,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		N: spec.N, T: T,
		Alpha: spec.Alpha,
		Locs:  []model.Loc{spec.LocX, spec.LocY},
	}
	g := NewGraph(p)

	// mirror allocates a host-resident operand's managed mirror; -1 marks a
	// device-resident operand, used in place.
	mirror := func(arg int8) int32 {
		if p.Locs[arg] == model.OnDevice {
			return -1
		}
		slot := g.Slot(kernelmodel.F64, int64(spec.N))
		g.Alloc(slot)
		return slot
	}
	xs, ys := mirror(0), mirror(1)
	ref := func(arg int8, slot int32, off int) Ref {
		if slot < 0 {
			return argRef(arg, int32(off), 0)
		}
		return slotOffRef(slot, int32(off))
	}

	chunks := ceil(spec.N, T)
	lastKernel := NoOp
	for ci := 0; ci < chunks; ci++ {
		off := ci * T
		n := min(T, spec.N-off)
		// The kernel waits for the prefetch stream's tail: the chunk's
		// last prefetch.
		ready := NoOp
		if xs >= 0 {
			ready = g.FetchVec(0, int32(off), int32(n), xs, int32(off))
		}
		if ys >= 0 {
			ready = g.FetchVec(1, int32(off), int32(n), ys, int32(off))
		}
		lastKernel = g.Axpy(int32(n), ref(0, xs, off), ref(1, ys, off), ready)
	}
	if ys >= 0 {
		// The first migration back waits for the last kernel; the rest
		// follow it in stream order.
		for ci := 0; ci < chunks; ci++ {
			off := ci * T
			g.WritebackVec(ys, int32(off), 1, int32(off), int32(min(T, spec.N-off)), lastKernel)
			lastKernel = NoOp
		}
	}
	return g.Finish()
}
