package plan

import (
	"cocopelia/internal/blas"
	"cocopelia/internal/model"
)

// The tiled factorization planners. Each builds a task-graph plan over the
// Graph surface: tiles of the factored matrix live on the device for the
// whole schedule (fetched once, written back after their final kernel), and
// every data hazard between tile kernels is a kernel→kernel dependency edge
// — the tile-forwarding encoding — rather than a writeback/refetch
// round-trip. Dependency lists follow one uniform rule: a kernel waits on
// the last writer of each operand tile it touches, inputs first, output
// last (absent writers — device-resident operands never written — are the
// NoOp sentinel and vanish).

// lowerIdx packs lower-triangle tile coordinates (i >= j) row-wise.
func lowerIdx(i, j int) int { return i*(i+1)/2 + j }

// buildCholesky emits the right-looking tiled Cholesky schedule of the
// in-place factorization A = L*L^T of the N x N matrix A. Only the lower
// triangle is referenced, tile-granular: tiles strictly above the diagonal
// are never fetched, updated or written back. Iteration k factors the diagonal tile (POTRF), solves the panel below it (TRSM
// right/lower/trans against the fresh diagonal factor), and applies the
// rank-T trailing update (SYRK on diagonal tiles, GEMM off-diagonal, both
// alpha=-1 beta=1). Diagonal and panel tiles are final after their POTRF
// or TRSM and are written back immediately, overlapping the remaining
// trailing updates.
func buildCholesky(g *Graph) {
	key := &g.p.Key
	T := key.T
	nt := ceil(key.N, T)
	dt := key.Dtype

	// Pre-size the arenas: nt(nt+1)/2 lower tiles (slot+alloc+fetch+writeback
	// each when host-resident), nt potrf, nt(nt-1)/2 trsm and syrk, C(nt,3)
	// gemm kernels, and at most 3 dependency edges per op.
	tiles := nt * (nt + 1) / 2
	kernels := nt + nt*(nt-1) + nt*(nt-1)*(nt-2)/6
	hostTiles := 0
	if key.Locs[0] == model.OnHost {
		hostTiles = tiles
	}
	g.Grow(hostTiles, 3*hostTiles+kernels, 3*kernels+hostTiles)

	// Per-tile planner state over the lower triangle: the kernel ref, the id
	// of the tile's last writer (its fetch, then each updating kernel) and
	// liveness for first-use fetching.
	state := make([]tileState, tiles)
	rows := func(i int) int { return min(T, key.N-i*T) }
	tile := func(i, j int) *tileState {
		t := &state[lowerIdx(i, j)]
		if t.live {
			return t
		}
		t.live = true
		if key.Locs[0] == model.OnDevice {
			t.ref = argRef(0, int32(i*T), int32(j*T))
			t.ready = NoOp
			return t
		}
		r, c := rows(i), rows(j)
		slot := g.Slot(dt, int64(r)*int64(c))
		g.Alloc(slot)
		t.ref = slotRef(slot, int32(r))
		t.ready = g.Fetch(0, int32(i*T), int32(j*T), int32(r), int32(c), slot)
		return t
	}
	writeback := func(i, j int, after OpID) {
		if key.Locs[0] == model.OnHost {
			t := &state[lowerIdx(i, j)]
			g.Writeback(t.ref.Slot, 0, int32(i*T), int32(j*T),
				int32(rows(i)), int32(rows(j)), after)
		}
	}

	for k := 0; k < nt; k++ {
		nk := rows(k)
		diag := tile(k, k)
		diag.ready = g.Potrf(blas.Lower, int32(nk), diag.ref, diag.ready)
		writeback(k, k, diag.ready)

		// Panel: A[i][k] <- A[i][k] * L[k][k]^-T, final after the solve.
		for i := k + 1; i < nt; i++ {
			pt := tile(i, k)
			pt.ready = g.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
				int32(rows(i)), int32(nk), AlphaOne, diag.ref, pt.ref,
				diag.ready, pt.ready)
			writeback(i, k, pt.ready)
		}

		// Trailing update: A[i][j] -= A[i][k] * A[j][k]^T for k < j <= i.
		for j := k + 1; j < nt; j++ {
			jp := tile(j, k)
			dj := tile(j, j)
			dj.ready = g.Syrk(blas.Lower, blas.NoTrans, int32(rows(j)), int32(nk),
				AlphaNegOne, BetaOne, jp.ref, dj.ref,
				jp.ready, dj.ready)
			for i := j + 1; i < nt; i++ {
				ip := tile(i, k)
				ct := tile(i, j)
				ct.ready = g.Gemm(blas.NoTrans, blas.Trans,
					int32(rows(i)), int32(rows(j)), int32(nk),
					AlphaNegOne, BetaOne, ip.ref, jp.ref, ct.ref,
					ip.ready, jp.ready, ct.ready)
			}
		}
	}
}

// buildLU emits the right-looking tiled LU schedule of the in-place
// unpivoted factorization A = L*U of the N x N matrix A (GETRF tiles model
// no row exchanges, matching problem generators that supply diagonally
// dominant matrices). Iteration k factors
// the diagonal tile (GETRF), solves the column panel against U[k][k]
// (TRSM right/upper) and the row panel against the unit L[k][k] (TRSM
// left/lower/unit), then applies the trailing update A[i][j] -=
// A[i][k]*A[k][j] (GEMM, alpha=-1 beta=1). Diagonal and panel tiles are
// written back right after their final kernel.
func buildLU(g *Graph) {
	key := &g.p.Key
	T := key.T
	nt := ceil(key.N, T)
	dt := key.Dtype

	// nt^2 tiles, nt getrf, nt(nt-1) trsm, sum r^2 = (nt-1)nt(2nt-1)/6 gemm.
	tiles := nt * nt
	kernels := nt + nt*(nt-1) + (nt-1)*nt*(2*nt-1)/6
	hostTiles := 0
	if key.Locs[0] == model.OnHost {
		hostTiles = tiles
	}
	g.Grow(hostTiles, 3*hostTiles+kernels, 3*kernels+hostTiles)

	state := make([]tileState, tiles)
	rows := func(i int) int { return min(T, key.N-i*T) }
	tile := func(i, j int) *tileState {
		t := &state[i*nt+j]
		if t.live {
			return t
		}
		t.live = true
		if key.Locs[0] == model.OnDevice {
			t.ref = argRef(0, int32(i*T), int32(j*T))
			t.ready = NoOp
			return t
		}
		r, c := rows(i), rows(j)
		slot := g.Slot(dt, int64(r)*int64(c))
		g.Alloc(slot)
		t.ref = slotRef(slot, int32(r))
		t.ready = g.Fetch(0, int32(i*T), int32(j*T), int32(r), int32(c), slot)
		return t
	}
	writeback := func(i, j int, after OpID) {
		if key.Locs[0] == model.OnHost {
			t := &state[i*nt+j]
			g.Writeback(t.ref.Slot, 0, int32(i*T), int32(j*T),
				int32(rows(i)), int32(rows(j)), after)
		}
	}

	for k := 0; k < nt; k++ {
		nk := rows(k)
		diag := tile(k, k)
		diag.ready = g.Getrf(int32(nk), diag.ref, diag.ready)
		writeback(k, k, diag.ready)

		// Column panel: A[i][k] <- A[i][k] * U[k][k]^-1.
		for i := k + 1; i < nt; i++ {
			pt := tile(i, k)
			pt.ready = g.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit,
				int32(rows(i)), int32(nk), AlphaOne, diag.ref, pt.ref,
				diag.ready, pt.ready)
			writeback(i, k, pt.ready)
		}
		// Row panel: A[k][j] <- L[k][k]^-1 * A[k][j].
		for j := k + 1; j < nt; j++ {
			pt := tile(k, j)
			pt.ready = g.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
				int32(nk), int32(rows(j)), AlphaOne, diag.ref, pt.ref,
				diag.ready, pt.ready)
			writeback(k, j, pt.ready)
		}
		// Trailing update.
		for j := k + 1; j < nt; j++ {
			up := tile(k, j)
			for i := k + 1; i < nt; i++ {
				lp := tile(i, k)
				ct := tile(i, j)
				ct.ready = g.Gemm(blas.NoTrans, blas.NoTrans,
					int32(rows(i)), int32(rows(j)), int32(nk),
					AlphaNegOne, BetaOne, lp.ref, up.ref, ct.ref,
					lp.ready, up.ready, ct.ready)
			}
		}
	}
}

// buildTrsm emits the tiled left/lower/no-trans solve A*X = alpha*B, X
// overwriting the M x N operand B (the sched request rejects other flags).
// B's column blocks are independent; within one, row block i first
// accumulates alpha*B[i][j] - sum_{k<i} A[i][k]*X[k][j], then the diagonal
// solve finishes X[i][j]. The key carries alpha as both scalars: Beta is
// the alpha scale of each tile's first accumulation (BetaPlan edges) and
// Alpha the diagonal solve's scale when no GEMM preceded it (AlphaPlan on
// row block 0). Solved X tiles forward to every later row's GEMMs and
// write back immediately.
func buildTrsm(g *Graph) {
	key := &g.p.Key
	T := key.T
	mt := ceil(key.M, T)
	nt := ceil(key.N, T)
	dt := key.Dtype

	aTiles := mt * (mt + 1) / 2
	bTiles := mt * nt
	kernels := nt * (mt + mt*(mt-1)/2)
	hostA, hostB := 0, 0
	if key.Locs[0] == model.OnHost {
		hostA = aTiles
	}
	if key.Locs[1] == model.OnHost {
		hostB = bTiles
	}
	g.Grow(hostA+hostB, 2*hostA+3*hostB+kernels, 3*kernels+hostB)

	rowsM := func(i int) int { return min(T, key.M-i*T) }
	colsN := func(j int) int { return min(T, key.N-j*T) }

	// A's lower-triangle tiles: read-only, fetched on first use.
	aState := make([]tileState, aTiles)
	aTile := func(i, k int) *tileState {
		t := &aState[lowerIdx(i, k)]
		if t.live {
			return t
		}
		t.live = true
		if key.Locs[0] == model.OnDevice {
			t.ref = argRef(0, int32(i*T), int32(k*T))
			t.ready = NoOp
			return t
		}
		r, c := rowsM(i), rowsM(k)
		slot := g.Slot(dt, int64(r)*int64(c))
		g.Alloc(slot)
		t.ref = slotRef(slot, int32(r))
		t.ready = g.Fetch(0, int32(i*T), int32(k*T), int32(r), int32(c), slot)
		return t
	}

	// B/X tiles: fetched per column sweep, overwritten in place.
	bState := make([]tileState, bTiles)
	bTile := func(i, j int) *tileState {
		t := &bState[i*nt+j]
		if t.live {
			return t
		}
		t.live = true
		if key.Locs[1] == model.OnDevice {
			t.ref = argRef(1, int32(i*T), int32(j*T))
			t.ready = NoOp
			return t
		}
		r, c := rowsM(i), colsN(j)
		slot := g.Slot(dt, int64(r)*int64(c))
		g.Alloc(slot)
		t.ref = slotRef(slot, int32(r))
		t.ready = g.Fetch(1, int32(i*T), int32(j*T), int32(r), int32(c), slot)
		return t
	}

	for j := 0; j < nt; j++ {
		cols := colsN(j)
		for i := 0; i < mt; i++ {
			ri := rowsM(i)
			bt := bTile(i, j)
			for k := 0; k < i; k++ {
				at := aTile(i, k)
				xt := &bState[k*nt+j] // solved earlier in this column sweep
				beta := BetaOne
				if k == 0 {
					beta = BetaPlan
				}
				bt.ready = g.Gemm(blas.NoTrans, blas.NoTrans,
					int32(ri), int32(cols), int32(rowsM(k)),
					AlphaNegOne, beta, at.ref, xt.ref, bt.ref,
					at.ready, xt.ready, bt.ready)
			}
			alpha := AlphaOne
			if i == 0 {
				alpha = AlphaPlan
			}
			ad := aTile(i, i)
			bt.ready = g.Trsm(blas.Left, blas.Lower, blas.NoTrans, key.Diag,
				int32(ri), int32(cols), alpha, ad.ref, bt.ref,
				ad.ready, bt.ready)
			if key.Locs[1] == model.OnHost {
				g.Writeback(bt.ref.Slot, 1, int32(i*T), int32(j*T),
					int32(ri), int32(cols), bt.ready)
			}
		}
	}
}
