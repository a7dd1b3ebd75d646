package plan

import (
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// OpID identifies one emitted op inside a graph under construction.
// Negative ids are legal wherever a dependency is expected and mean
// "already satisfied" (a device-resident operand, an unfetched slot);
// they are skipped, mirroring WaitEvent's no-op on completed events.
type OpID = int32

// NoOp is the absent-dependency sentinel.
const NoOp OpID = -1

// Graph builds a plan as an explicit tile-task DAG: any op may depend on
// any earlier op's completion event, including kernel→kernel edges, and one
// graph may mix kernel kinds (the factorization planners emit POTRF, TRSM,
// SYRK and GEMM tile ops into a single plan). It is the general surface the
// routine-specific planners are thin clients of.
//
// Graph preserves every property the downstream layers rely on:
//
//   - ops and dependency edges live in deterministic arena-allocated lists
//     (emission order is the IR);
//   - scalars are keyed by selector (AlphaSel/BetaSel over Float64bits), so
//     replay reproduces the planner's floats exactly;
//   - Fetch/Writeback maintain the plan's H2D/D2H volume annotations and
//     kernel emitters count Subkernels, exactly as the flat builders did;
//   - the finished plan replays with event-order-preserving execution
//     (Executor.Run), so sim results stay bit-identical.
//
// Tile forwarding is expressed, not special-cased: a kernel that consumes
// another kernel's output tile references the same staging slot (or device
// window) and lists the producer kernel as a dependency — no writeback and
// refetch round-trip appears between them, and the executor turns the edge
// into a stream wait on the producer's completion event.
type Graph struct {
	p        *Plan
	depStart int32 // first dependency edge of the op being built
	// route is the stream each op kind is emitted to: kindStream, or the
	// pinned stream (see Pin).
	route [4]uint8
}

// emit appends a zero op to the arena, binding the dependencies recorded
// since the last emit, and returns the arena slot for the caller to fill
// in place (kind and stream included) along with its id. Op is a wide
// struct and planners emit hundreds of thousands per campaign; filling the
// slot directly avoids a per-op stack literal plus arena copy. Callers must
// only set fields — never hold the pointer across another emit (the arena
// may grow).
func (g *Graph) emit() (*Op, int32) {
	id := int32(len(g.p.Ops))
	if int(id) < cap(g.p.Ops) {
		// The arena comes zeroed from make, so extending into capacity
		// yields a zero op without writing 96 bytes of zeros first; the
		// caller fills only the fields it needs.
		g.p.Ops = g.p.Ops[:id+1]
	} else {
		g.p.Ops = append(g.p.Ops, Op{})
	}
	o := &g.p.Ops[id]
	o.depOff = g.depStart
	o.depN = int32(len(g.p.deps)) - g.depStart
	g.depStart = int32(len(g.p.deps))
	return o, id
}

// Grow pre-sizes the op, dependency and slot arenas for a planner that
// knows its schedule shape; appending tens of thousands of ops through
// slice growth would otherwise dominate planning time. The op and
// dependency arenas come from released plans when one fits (see
// Plan.Release).
func (g *Graph) Grow(slots, ops, deps int) {
	p := g.p
	if cap(p.Slots) < slots {
		p.Slots = append(make([]Slot, 0, slots), p.Slots...)
	}
	if cap(p.Ops) < ops {
		p.Ops = append(freeOps.take(ops), p.Ops...)
	}
	if cap(p.deps) < deps {
		p.deps = append(freeDeps.take(deps), p.deps...)
	}
}

// Pin routes every op emitted after it to context stream s, whatever its
// kind, instead of its kind's stream (StreamH2D, StreamD2H, StreamComp).
// Ops on one stream run in emission order, so a pinned pipeline needs no
// dependency edges between its own ops.
func (g *Graph) Pin(s uint8) {
	g.route = [4]uint8{OpAlloc: 0, OpFetch: s, OpKernel: s, OpWriteback: s}
	g.p.Streams = max(g.p.Streams, int(s)+1)
}

// Slot registers a staging buffer shape and returns its slot id.
func (g *Graph) Slot(dt kernelmodel.Dtype, elems int64) int32 {
	id := int32(len(g.p.Slots))
	g.p.Slots = append(g.p.Slots, Slot{Dtype: dt, Elems: elems})
	return id
}

// Alloc emits the pool acquisition of a slot. Allocation order is part of
// the IR: it determines pool-eviction behaviour and the device memory peak.
func (g *Graph) Alloc(slot int32) OpID {
	o, id := g.emit()
	o.Kind, o.Slot = OpAlloc, slot
	return id
}

// deps registers the dependency edges of the op about to be emitted, in
// argument order (negative ids skipped).
func (g *Graph) deps(ids []OpID) {
	for _, id := range ids {
		if id >= 0 {
			g.p.deps = append(g.p.deps, id)
		}
	}
}

// Fetch emits an h2d transfer of an m x n element window of bound operand
// arg at (row, col) into slot, and accounts its bytes in the plan's H2D
// volume. deps order is wait-registration order.
func (g *Graph) Fetch(arg int8, row, col, m, n, slot int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Slot = OpFetch, g.route[OpFetch], slot
	o.A = argRef(arg, row, col)
	o.M, o.N = m, n
	g.p.BytesH2D += g.p.opBytes(o)
	return id
}

// FetchVec emits an h2d transfer of m elements of bound vector operand arg
// starting at off into slot at element offset slotOff.
func (g *Graph) FetchVec(arg int8, off, m, slot, slotOff int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Slot, o.K = OpFetch, g.route[OpFetch], slot, slotOff
	o.A, o.M = argRef(arg, off, 0), m
	g.p.BytesH2D += g.p.opBytes(o)
	return id
}

// Writeback emits a d2h transfer of slot's m x n window back to bound
// operand arg at (row, col), accounting its bytes in the D2H volume.
func (g *Graph) Writeback(slot int32, arg int8, row, col, m, n int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Slot = OpWriteback, g.route[OpWriteback], slot
	o.A = argRef(arg, row, col)
	o.M, o.N = m, n
	g.p.BytesD2H += g.p.opBytes(o)
	return id
}

// WritebackVec emits a d2h transfer of m elements from slot at element
// offset slotOff back to bound vector operand arg at off.
func (g *Graph) WritebackVec(slot, slotOff int32, arg int8, off, m int32, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Slot, o.K = OpWriteback, g.route[OpWriteback], slot, slotOff
	o.A, o.M = argRef(arg, off, 0), m
	g.p.BytesD2H += g.p.opBytes(o)
	return id
}

// Dispatch emits a dispatch-overhead kernel (its duration is
// BlasxDispatchS); it does not count as a sub-kernel.
func (g *Graph) Dispatch(deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KDispatch
	return id
}

// Gemm emits C = alpha*op(A)*op(B) + beta*C over tile refs.
func (g *Graph) Gemm(transA, transB byte, m, n, k int32, alpha AlphaSel, beta BetaSel, a, b, c Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KGemm
	o.TransA, o.TransB = transA, transB
	o.M, o.N, o.K = m, n, k
	o.Alpha, o.Beta = alpha, beta
	o.A, o.B, o.C = a, b, c
	g.p.Subkernels++
	return id
}

// Gemv emits y = alpha*A*x + beta*y over tile refs.
func (g *Graph) Gemv(m, n int32, beta BetaSel, a, x, y Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KGemv
	o.M, o.N = m, n
	o.Beta = beta
	o.A, o.B, o.C = a, x, y
	g.p.Subkernels++
	return id
}

// Axpy emits y += alpha*x over vector refs.
func (g *Graph) Axpy(n int32, x, y Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KAxpy
	o.N = n
	o.A, o.C = x, y
	g.p.Subkernels++
	return id
}

// Potrf emits the in-place Cholesky factorization of the n x n tile a
// (the referenced triangle per uplo).
func (g *Graph) Potrf(uplo byte, n int32, a Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KPotrf
	o.Uplo, o.N = uplo, n
	o.A = a
	g.p.Subkernels++
	return id
}

// Getrf emits the in-place unpivoted LU factorization of the n x n tile a.
func (g *Graph) Getrf(n int32, a Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KGetrf
	o.N = n
	o.A = a
	g.p.Subkernels++
	return id
}

// Trsm emits the triangular tile solve op(A)*X = alpha*B (side L) or
// X*op(A) = alpha*B (side R), overwriting B.
func (g *Graph) Trsm(side, uplo, transA, diag byte, m, n int32, alpha AlphaSel, a, b Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KTrsm
	o.Side, o.Uplo, o.TransA, o.Diag = side, uplo, transA, diag
	o.M, o.N = m, n
	o.Alpha = alpha
	o.A, o.B = a, b
	g.p.Subkernels++
	return id
}

// Syrk emits the symmetric rank-k tile update
// C = alpha*A*A^T + beta*C (trans 'N') or alpha*A^T*A + beta*C (trans 'T').
func (g *Graph) Syrk(uplo, trans byte, n, k int32, alpha AlphaSel, beta BetaSel, a, c Ref, deps ...OpID) OpID {
	g.deps(deps)
	o, id := g.emit()
	o.Kind, o.Stream, o.Kernel = OpKernel, g.route[OpKernel], KSyrk
	o.Uplo, o.TransA = uplo, trans
	o.N, o.K = n, k
	o.Alpha, o.Beta = alpha, beta
	o.A, o.C = a, c
	g.p.Subkernels++
	return id
}

// tileState is the planner-side record of one resident device tile: where
// a kernel finds it (ref) and its last writer (its fetch, then each kernel
// that updates it; NoOp when nothing is pending — a device-resident
// operand or an unfetched slot).
type tileState struct {
	ref   Ref
	ready OpID
	live  bool
}

// tileGrid is the residency record of one bound 2-D operand's T x T
// tiles, keyed by stored coordinates: tile (i, j) is the window at element
// (i*T, j*T), ragged in the operand's last row and column of tiles.
type tileGrid struct {
	arg           int8
	T, rows, cols int // the tile size and the stored operand's shape
	gridCols      int
	tiles         []tileState
}

// grid returns the empty residency record of bound operand arg, a
// rows x cols matrix as stored, tiled at the plan's T.
func (g *Graph) grid(arg int8, rows, cols int) tileGrid {
	T := g.p.T
	gc := ceil(cols, T)
	return tileGrid{arg: arg, T: T, rows: rows, cols: cols, gridCols: gc,
		tiles: make([]tileState, ceil(rows, T)*gc)}
}

// window returns tile (i, j)'s element origin and shape.
func (tg *tileGrid) window(i, j int) (row, col, m, n int32) {
	T := tg.T
	return int32(i * T), int32(j * T), int32(min(T, tg.rows-i*T)), int32(min(T, tg.cols-j*T))
}

// resident returns tile (i, j) of tg, making it resident on first use: the
// one way the planners put a 2-D tile on the device. A device-resident
// operand's tile is its window, used in place. A host-resident operand's
// tile gets a staging slot of its shape, allocated now, and, when fetch is
// set, the h2d fetch of its window as its first ready op. Later calls
// return the same record.
func (g *Graph) resident(tg *tileGrid, i, j int, fetch bool) *tileState {
	t := &tg.tiles[i*tg.gridCols+j]
	if t.live {
		return t
	}
	t.live, t.ready = true, NoOp
	row, col, m, n := tg.window(i, j)
	if g.p.Locs[tg.arg] == model.OnDevice {
		t.ref = argRef(tg.arg, row, col)
		return t
	}
	slot := g.Slot(g.p.Dtype, int64(m)*int64(n))
	g.Alloc(slot)
	t.ref = slotRef(slot, m)
	if fetch {
		t.ready = g.Fetch(tg.arg, row, col, m, n, slot)
	}
	return t
}

// writeback emits the d2h write-back of resident tile (i, j) of tg to its
// window once op after completes, when the operand is host-resident, and
// returns it; a device-resident tile was updated in place, so nothing is
// emitted and the result is NoOp.
func (g *Graph) writeback(tg *tileGrid, i, j int, after OpID) OpID {
	if g.p.Locs[tg.arg] == model.OnDevice {
		return NoOp
	}
	row, col, m, n := tg.window(i, j)
	return g.Writeback(tg.tiles[i*tg.gridCols+j].ref.Slot, tg.arg, row, col, m, n, after)
}

// Finish assigns the completion-event table and returns the sealed plan.
func (g *Graph) Finish() *Plan { return finish(g.p) }
