// Package blas provides reference CPU implementations of the dense BLAS
// routines the CoCoPeLia framework offloads. They follow the Fortran BLAS
// conventions: column-major storage with explicit leading dimensions, and
// the standard transpose flags.
//
// These implementations serve two purposes: they are the functional payload
// of simulated GPU kernels (so the tile scheduler's decomposition,
// K-dimension accumulation and write-back logic are verified with real
// numerics), and they are the ground truth that integration tests compare
// tiled executions against.
package blas

import (
	"errors"
	"fmt"

	"cocopelia/internal/parallel"
)

// Float is the element-type constraint of the generic kernels.
type Float interface {
	~float32 | ~float64
}

// Transpose flags, matching the BLAS character convention.
const (
	// NoTrans selects op(X) = X.
	NoTrans byte = 'N'
	// Trans selects op(X) = X^T.
	Trans byte = 'T'
)

// ErrShape is wrapped by all dimension/stride validation failures.
var ErrShape = errors.New("blas: bad shape")

func badShape(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrShape, fmt.Sprintf(format, args...))
}

// checkMatrix validates a column-major rows x cols matrix with leading
// dimension ld backed by data.
func checkMatrix[F Float](name string, rows, cols, ld int, data []F) error {
	if rows < 0 || cols < 0 {
		return badShape("%s: negative dimensions %dx%d", name, rows, cols)
	}
	if ld < max(1, rows) {
		return badShape("%s: ld=%d < rows=%d", name, ld, rows)
	}
	if rows == 0 || cols == 0 {
		return nil
	}
	need := (cols-1)*ld + rows
	if len(data) < need {
		return badShape("%s: backing slice too short: have %d, need %d", name, len(data), need)
	}
	return nil
}

// checkVector validates a length-n vector with stride inc (inc != 0).
func checkVector[F Float](name string, n, inc int, data []F) error {
	if n < 0 {
		return badShape("%s: negative length %d", name, n)
	}
	if inc == 0 {
		return badShape("%s: zero increment", name)
	}
	if n == 0 {
		return nil
	}
	need := (n-1)*abs(inc) + 1
	if len(data) < need {
		return badShape("%s: backing slice too short: have %d, need %d", name, len(data), need)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// vecIdx returns the slice index of logical element i of a strided vector.
func vecIdx(i, n, inc int) int {
	if inc >= 0 {
		return i * inc
	}
	return (n - 1 - i) * -inc
}

// Axpy computes y += alpha*x over length-n strided vectors.
func Axpy[F Float](n int, alpha F, x []F, incx int, y []F, incy int) error {
	if err := checkVector("x", n, incx, x); err != nil {
		return err
	}
	if err := checkVector("y", n, incy, y); err != nil {
		return err
	}
	if n == 0 || alpha == 0 {
		return nil
	}
	if incx == 1 && incy == 1 {
		for i := 0; i < n; i++ {
			y[i] += alpha * x[i]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		y[vecIdx(i, n, incy)] += alpha * x[vecIdx(i, n, incx)]
	}
	return nil
}

// opDims returns the (rows, cols) of op(X) for an rows x cols stored X.
func opDims(trans byte, rows, cols int) (int, int) {
	if trans == Trans {
		return cols, rows
	}
	return rows, cols
}

func checkTrans(name string, trans byte) error {
	if trans != NoTrans && trans != Trans {
		return badShape("%s: bad transpose flag %q", name, trans)
	}
	return nil
}

// Gemv computes y = alpha*op(A)*x + beta*y for an m x n stored matrix A.
func Gemv[F Float](trans byte, m, n int, alpha F, a []F, lda int, x []F, incx int, beta F, y []F, incy int) error {
	if err := checkTrans("gemv", trans); err != nil {
		return err
	}
	if err := checkMatrix("A", m, n, lda, a); err != nil {
		return err
	}
	rows, cols := opDims(trans, m, n) // op(A) is rows x cols
	if err := checkVector("x", cols, incx, x); err != nil {
		return err
	}
	if err := checkVector("y", rows, incy, y); err != nil {
		return err
	}
	// The transpose branch is hoisted out of the loops so each inner loop
	// is direct slice indexing (a per-element accessor closure would defeat
	// bounds-check elimination and inlining).
	if trans == Trans {
		for i := 0; i < rows; i++ {
			yi := vecIdx(i, rows, incy)
			// op(A) row i is stored column i of A: unit stride.
			arow := a[i*lda : i*lda+cols]
			var acc F
			if incx == 1 {
				for j, av := range arow {
					acc += av * x[j]
				}
			} else {
				for j, av := range arow {
					acc += av * x[vecIdx(j, cols, incx)]
				}
			}
			y[yi] = alpha*acc + beta*y[yi]
		}
		return nil
	}
	for i := 0; i < rows; i++ {
		yi := vecIdx(i, rows, incy)
		arow := a[i:]
		var acc F
		for j := 0; j < cols; j++ {
			acc += arow[j*lda] * x[vecIdx(j, cols, incx)]
		}
		y[yi] = alpha*acc + beta*y[yi]
	}
	return nil
}

// Syrk computes C = alpha*A*A^T + beta*C (trans=NoTrans) or
// C = alpha*A^T*A + beta*C (trans=Trans) for the full n x n matrix C
// (both triangles are written; the framework has no packed storage).
// It is SyrkParallel with a nil pool.
func Syrk[F Float](trans byte, n, k int, alpha F, a []F, lda int, beta F, c []F, ldc int) error {
	return SyrkParallel(nil, trans, n, k, alpha, a, lda, beta, c, ldc)
}

// Side and triangle flags for the triangular routines, matching the BLAS
// character convention.
const (
	// Left selects op(A) on the left: op(A)*X = alpha*B.
	Left byte = 'L'
	// Right selects op(A) on the right: X*op(A) = alpha*B.
	Right byte = 'R'
	// Upper selects the upper triangle of a triangular/symmetric matrix.
	Upper byte = 'U'
	// Lower selects the lower triangle.
	Lower byte = 'L'
	// Unit marks an implicit unit diagonal.
	Unit byte = 'U'
	// NonUnit marks an explicit diagonal.
	NonUnit byte = 'N'
)

// Trsm solves op(A)*X = alpha*B (side Left) or X*op(A) = alpha*B (side
// Right) for X, overwriting B, where A is triangular per uplo/diag and
// B is m x n. It is TrsmParallel with a nil pool.
func Trsm[F Float](side, uplo, transA, diag byte, m, n int, alpha F, a []F, lda int, b []F, ldb int) error {
	return TrsmParallel(nil, side, uplo, transA, diag, m, n, alpha, a, lda, b, ldb)
}

// TrsmParallel is Trsm with its right-hand sides split over the pool's
// workers (a nil pool runs inline).
//
// Every side/trans combination reduces to solving E*x = alpha*y in place
// for each column (side Left) or row (side Right) y of B, where E is
// op(A) or op(A)^T. The effective triangle E is packed row-major once, so
// each dot product is unit-stride, and eight right-hand sides are solved
// per pass over it. Each element still receives its terms one rounded
// multiply-then-add at a time in increasing column order of E, then one
// subtraction and (NonUnit) one division — the plain substitution loop's
// exact operation sequence — so results are bitwise identical to it.
//
// Forward substitution (lower E) runs left-looking in row blocks of
// blockWidth: the terms of a block's rows over the columns already solved
// come from one exact GEMM against the solved rows of B, and the in-block
// substitution continues those same accumulators (see trsmSolve.sides).
// Right-hand sides are independent, so each worker solves a contiguous
// range of whole eight-side groups against the shared packed triangle in
// buffers of its own, and the result is bitwise identical at any worker
// count.
func TrsmParallel[F Float](p *parallel.Pool, side, uplo, transA, diag byte, m, n int, alpha F, a []F, lda int, b []F, ldb int) error {
	if side != Left && side != Right {
		return badShape("trsm: bad side %q", side)
	}
	if uplo != Upper && uplo != Lower {
		return badShape("trsm: bad uplo %q", uplo)
	}
	if err := checkTrans("trsm", transA); err != nil {
		return err
	}
	if diag != Unit && diag != NonUnit {
		return badShape("trsm: bad diag %q", diag)
	}
	na := m
	if side == Right {
		na = n
	}
	if err := checkMatrix("A", na, na, lda, a); err != nil {
		return err
	}
	if err := checkMatrix("B", m, n, ldb, b); err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	// E(i,l) is op(A)(i,l) for side Left and op(A)(l,i) for side Right;
	// rowsInA reports that row i of E is stored column i of A.
	lower := (uplo == Lower) != (transA == Trans)
	rowsInA := transA == Trans
	if side == Right {
		lower, rowsInA = !lower, !rowsInA
	}
	// Backward substitution adds a row's in-block terms before the terms
	// of the rows solved in earlier blocks, so only forward substitution
	// splits into blocks; upper E is one block, the unblocked solve.
	nb := na
	if lower {
		nb = blockWidth[F](na)
	}
	// Right-hand side r is column r of B (side Left) or row r of B (side
	// Right); element l of it sits at b[r*rStep + l*lStep].
	t := trsmSolve[F]{lower: lower, nonUnit: diag == NonUnit, k: na, nb: nb, alpha: alpha,
		b: b, rStep: ldb, lStep: 1}
	rhs := n
	if side == Right {
		rhs, t.rStep, t.lStep = m, 1, ldb
	}
	groups := (rhs + trsmRHS - 1) / trsmRHS
	workers := min(p.Workers(), groups)
	bufs := triBufPool.Get().(*gemmBuffers)
	defer triBufPool.Put(bufs)
	inline := 0 // the inline solve's workspace
	if workers <= 1 {
		inline = t.workLen(rhs)
	}
	e, work := packSlices[F](bufs, na*na, inline)
	t.e = e
	packTriangle(lower, rowsInA, na, a, lda, e)
	if workers <= 1 {
		return t.sides(0, rhs, work)
	}
	// One contiguous range of whole groups per worker. The split only
	// chooses who solves a side, never how.
	shared := t // the workers' copy, so t stays off the heap on the inline path
	return parallel.ForEach(p, splitUnits(rhs, trsmRHS, workers), func(_ int, r span) error {
		wb := triBufPool.Get().(*gemmBuffers)
		defer triBufPool.Put(wb)
		_, work := packSlices[F](wb, 0, shared.workLen(r.hi-r.lo))
		return shared.sides(r.lo, r.hi, work)
	})
}

// trsmBlock is the row-block width of the left-looking Trsm and Potrf:
// the fastest of 16, 32 and 64 in BenchmarkTrsm on an AVX-512 host.
const trsmBlock = 32

// blockWidth returns the left-looking block width of an order-k Trsm or
// Potrf with element type F: trsmBlock where the GEMM kernel for F is
// native, and k — one block, the unblocked loop — where it is the
// portable Go kernel (float32, named float types, hosts without AVX). The
// portable kernel runs the GEMM prefix no faster than the substitution
// loop itself, so blocking would only add packing.
func blockWidth[F Float](k int) int {
	if kernelFor[F]().f64 == nil {
		return k
	}
	return trsmBlock
}

// trsmSolve is one Trsm call's packed triangle E (k x k, see
// packTriangle) and its right-hand sides: side r's element l is
// b[r*rStep+l*lStep]. Rows are solved in blocks of nb.
type trsmSolve[F Float] struct {
	lower, nonUnit bool
	k, nb          int
	alpha          F
	e, b           []F
	rStep, lStep   int
}

// workLen is the workspace sides needs for w right-hand sides: the
// interleaved panel of trsmRHS*nb elements and, with more than one block,
// nb seed rows of roundUp(w, trsmRHS) sums.
func (t trsmSolve[F]) workLen(w int) int {
	n := trsmRHS * t.nb
	if t.nb < t.k {
		n += t.nb * roundUp(w, trsmRHS)
	}
	return n
}

// sides solves right-hand sides [lo, hi) block by block in work
// (workLen(hi-lo) elements): the interleaved panel p, then the block's
// seed rows s.
//
// For row block [i0, i1) one GEMM with beta = 0 first computes
// S(r, i) = sum over l < i0 of E(i, l)*X(l, r) from the rows of B the
// earlier blocks solved. The exact kernels add those terms in increasing
// l, each one rounded multiply and one rounded add starting from +0 — the
// substitution loop's own accumulator sequence — and solveTriangle8 then
// continues each accumulator over l in [i0, i), so every element is
// bitwise what the unblocked solve computes.
func (t trsmSolve[F]) sides(lo, hi int, work []F) error {
	p, s := work[:trsmRHS*t.nb], work[trsmRHS*t.nb:]
	w := hi - lo
	ldS := roundUp(w, trsmRHS)
	// The GEMM writes S transposed, the sums of block row i for sides
	// lo.. at s[i*ldS:], so each row's eight seeds are contiguous. The
	// padding lanes past w seed the panel's zero-filled unused lanes.
	for i := 0; i < len(s); i += ldS {
		clear(s[i+w : i+ldS])
	}
	// The GEMM's A operand is X^T: op(A)(r, l) = b[r*rStep+l*lStep] is
	// NoTrans with lda = lStep when the sides are rows of B (rStep = 1)
	// and Trans with lda = rStep when they are columns (lStep = 1). A
	// single packed row of B has both steps 1 and is rows; a single row of
	// columns (m = 1) is one block and never reaches the GEMM.
	xTrans, ldx := NoTrans, t.lStep
	if t.rStep != 1 {
		xTrans, ldx = Trans, t.rStep
	}
	for i0 := 0; i0 < t.k; i0 += t.nb {
		i1 := min(i0+t.nb, t.k)
		if i0 > 0 {
			if err := Gemm(xTrans, NoTrans, w, i1-i0, i0, 1,
				t.b[lo*t.rStep:], ldx, t.e[i0*t.k:], t.k, 0, s, ldS); err != nil {
				return err
			}
		}
		for r := lo; r < hi; r += trsmRHS {
			g := min(trsmRHS, hi-r)
			x := t.b[r*t.rStep+i0*t.lStep:]
			gatherRHS(g, i1-i0, t.alpha, x, t.rStep, t.lStep, p)
			var seed []F // the first block's sums start from zero
			if i0 > 0 {
				seed = s[r-lo:]
			}
			solveTriangle8(t.lower, t.nonUnit, t.k, i0, i1, t.e, p, seed, ldS)
			scatterRHS(g, i1-i0, p, x, t.rStep, t.lStep)
		}
	}
	return nil
}

// trsmRHS is the number of right-hand sides Trsm solves per pass over the
// packed triangle.
const trsmRHS = 8

// packTriangle copies the referenced triangle (diagonal included) of the
// k x k matrix E into e row-major, E(i,l) at e[i*k+l]. E(i,l) is
// a[l+i*lda] when rowsInA and a[i+l*lda] otherwise; the other triangle of
// e is left as is and never read.
func packTriangle[F Float](lower, rowsInA bool, k int, a []F, lda int, e []F) {
	// Column c of A holds the [lo, hi) part of row c of E (rowsInA) or of
	// column c of E (!rowsInA).
	for c := 0; c < k; c++ {
		lo, hi := c, k
		if lower == rowsInA {
			lo, hi = 0, c+1
		}
		src := a[c*lda+lo : c*lda+hi]
		if rowsInA {
			copy(e[c*k+lo:c*k+hi], src)
			continue
		}
		for o, v := range src {
			e[(lo+o)*k+c] = v
		}
	}
}

// gatherRHS interleaves w <= trsmRHS right-hand sides of length k into
// p (element l of side c at p[l*trsmRHS+c]), scaled by alpha as the
// solve's first step, and zero-fills the unused lanes. Element l of side c
// is b[c*rStep+l*lStep].
func gatherRHS[F Float](w, k int, alpha F, b []F, rStep, lStep int, p []F) {
	for l := 0; l < k; l++ {
		x := p[l*trsmRHS : l*trsmRHS+trsmRHS]
		for c := 0; c < trsmRHS; c++ {
			switch {
			case c >= w:
				x[c] = 0
			case alpha != 1:
				x[c] = alpha * b[c*rStep+l*lStep]
			default:
				x[c] = b[c*rStep+l*lStep]
			}
		}
	}
}

// scatterRHS writes the first w sides of the interleaved panel p back to
// b, inverting gatherRHS.
func scatterRHS[F Float](w, k int, p []F, b []F, rStep, lStep int) {
	for l := 0; l < k; l++ {
		x := p[l*trsmRHS : l*trsmRHS+w]
		for c, v := range x {
			b[c*rStep+l*lStep] = v
		}
	}
}

// solveTriangle8 runs forward (lower) or backward substitution for rows
// [i0, i1) of the packed k x k triangle e on eight interleaved right-hand
// sides; p holds those rows, row i at p[(i-i0)*trsmRHS:]. Row i's dot
// product walks columns l of E in increasing order within the block (l in
// [i0, i) forward, (i, i1) backward) with one accumulator per side, each
// term one rounded multiply-then-add. The accumulators of row i start from
// seed[(i-i0)*ldS:] — the sums over the columns of earlier blocks — or
// from zero when seed is nil.
func solveTriangle8[F Float](lower, nonUnit bool, k, i0, i1 int, e, p, seed []F, ldS int) {
	p = p[:trsmRHS*(i1-i0)]
	for t := i0; t < i1; t++ {
		i, lo, hi := t, i0, t
		if !lower {
			i = i1 - 1 - (t - i0)
			lo, hi = i+1, i1
		}
		var s0, s1, s2, s3, s4, s5, s6, s7 F
		if seed != nil {
			sd := seed[(i-i0)*ldS : (i-i0)*ldS+trsmRHS]
			s0, s1, s2, s3 = sd[0], sd[1], sd[2], sd[3]
			s4, s5, s6, s7 = sd[4], sd[5], sd[6], sd[7]
		}
		xs := p[(lo-i0)*trsmRHS : (hi-i0)*trsmRHS]
		for l, el := range e[i*k+lo : i*k+hi] {
			x := xs[l*trsmRHS : l*trsmRHS+trsmRHS]
			s0 += el * x[0]
			s1 += el * x[1]
			s2 += el * x[2]
			s3 += el * x[3]
			s4 += el * x[4]
			s5 += el * x[5]
			s6 += el * x[6]
			s7 += el * x[7]
		}
		x := p[(i-i0)*trsmRHS : (i-i0)*trsmRHS+trsmRHS]
		x[0] -= s0
		x[1] -= s1
		x[2] -= s2
		x[3] -= s3
		x[4] -= s4
		x[5] -= s5
		x[6] -= s6
		x[7] -= s7
		if nonUnit {
			d := e[i*k+i]
			x[0] /= d
			x[1] /= d
			x[2] /= d
			x[3] /= d
			x[4] /= d
			x[5] /= d
			x[6] /= d
			x[7] /= d
		}
	}
}

// Named double/single precision wrappers, matching the BLAS naming scheme
// used throughout the paper.

// Daxpy is Axpy for float64.
func Daxpy(n int, alpha float64, x []float64, incx int, y []float64, incy int) error {
	return Axpy(n, alpha, x, incx, y, incy)
}

// Dgemm is Gemm for float64.
func Dgemm(transA, transB byte, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Sgemm is Gemm for float32.
func Sgemm(transA, transB byte, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Dgemv is Gemv for float64.
func Dgemv(trans byte, m, n int, alpha float64, a []float64, lda int, x []float64, incx int, beta float64, y []float64, incy int) error {
	return Gemv(trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
}
