package plan

import (
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// buildGemv emits the level-2 schedule of y = alpha*A*x + beta*y (float64,
// A stored MxN): A tiles fetched per sub-kernel, x chunks fetched once and
// reused down each tile column, y chunks accumulating on the device and
// written back once per tile row.
func buildGemv(g *Graph) {
	key := &g.p.Key
	T := key.T
	mt := ceil(key.M, T)
	nt := ceil(key.N, T)
	keyBeta := scalar(key.Beta)

	// x chunks: fetched once, reused by every tile row.
	xChunks := make([]tileState, nt)
	getX := func(tj, n int) *tileState {
		ch := &xChunks[tj]
		if ch.live {
			return ch
		}
		ch.live = true
		if key.Locs[1] == model.OnDevice {
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
		rows := min(T, key.M-ti*T)
		var yRef Ref
		ySlot := int32(-1)
		yReady := NoOp
		if key.Locs[2] == model.OnDevice {
			yRef = argRef(2, int32(ti*T), 0)
		} else {
			ySlot = g.Slot(kernelmodel.F64, int64(rows))
			g.Alloc(ySlot)
			yRef = slotRef(ySlot, 0)
			if keyBeta != 0 {
				yReady = g.FetchVec(2, int32(ti*T), int32(rows), ySlot, 0)
			}
		}

		for tj := 0; tj < nt; tj++ {
			cols := min(T, key.N-tj*T)
			xc := getX(tj, cols)
			aRef := argRef(0, int32(ti*T), int32(tj*T))
			aReady := NoOp
			if key.Locs[0] == model.OnHost {
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
				beta = keyBeta
				if key.Locs[2] == model.OnHost && keyBeta == 0 {
					beta = 0
				}
			}
			lastComp = g.Gemv(int32(rows), int32(cols), betaSel(beta),
				aRef, xc.ref, yRef, depBuf...)
		}

		if key.Locs[2] == model.OnHost {
			g.WritebackVec(ySlot, 0, 2, int32(ti*T), int32(rows), lastComp)
		}
	}
}

// buildAxpy emits the level-1 schedule of y += alpha*x (float64):
// independent 1-D chunks, each with its own staging slots, pipelined across
// the three streams.
func buildAxpy(g *Graph) {
	key := &g.p.Key

	chunks := ceil(key.N, key.T)
	for ci := 0; ci < chunks; ci++ {
		off := ci * key.T
		n := min(key.T, key.N-off)

		chunk := func(arg int8) (Ref, OpID) {
			if key.Locs[arg] == model.OnDevice {
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

		if key.Locs[1] == model.OnHost {
			g.WritebackVec(yRef.Slot, 0, 1, int32(off), int32(n), kid)
		}
	}
}

// buildAxpyUnified emits the unified-memory daxpy baseline the paper
// compares CoCoPeLia's level-1 path against: CUDA unified memory with
// prefetching. Each host-resident operand gets a whole-vector managed
// mirror. Prefetch hints stream its pages to the device in T-element
// chunks on the h2d stream ahead of each chunk's kernel, so h2d overlaps
// compute, but at a fixed small granularity that pays the per-transfer
// latency far more often than a tiled scheduler. The written pages of y
// migrate back on demand only when the host touches y, after the last
// kernel: the d2h chunks all queue behind the whole kernel sequence and
// never overlap compute. Device-resident operands need no migration.
func buildAxpyUnified(g *Graph) {
	key := &g.p.Key
	T := key.T

	// mirror allocates a host-resident operand's managed mirror; -1 marks a
	// device-resident operand, used in place.
	mirror := func(arg int8) int32 {
		if key.Locs[arg] == model.OnDevice {
			return -1
		}
		slot := g.Slot(kernelmodel.F64, int64(key.N))
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

	chunks := ceil(key.N, T)
	lastKernel := NoOp
	for ci := 0; ci < chunks; ci++ {
		off := ci * T
		n := min(T, key.N-off)
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
			g.WritebackVec(ys, int32(off), 1, int32(off), int32(min(T, key.N-off)), lastKernel)
			lastKernel = NoOp
		}
	}
}
