package blas

// This file holds the dense factorization kernels. They are the functional
// payloads of the simulated GPU's diagonal-tile kernels (POTRF/GETRF): the
// tiled factorization planners decompose a matrix into tile task graphs
// whose diagonal factorizations land here, while the panel solves and
// trailing updates reuse Trsm/Syrk/Gemm. Both kernels perform exactly the
// operations of the textbook unblocked loops, in the same per-element
// order, so they are bitwise identical to them; only the memory access
// pattern and the engine differ (Potrf adds most terms in exact GEMM
// steps and the rest in unit-stride dot products over a pooled row
// mirror, Getrf updates the trailing matrix column by column).

import (
	"errors"
	"fmt"
	"math"

	"cocopelia/internal/parallel"
)

// ErrNotPositiveDefinite is wrapped by Potrf when a leading minor is not
// positive definite.
var ErrNotPositiveDefinite = errors.New("blas: matrix not positive definite")

// ErrSingular is wrapped by Getrf when a pivot is exactly zero.
var ErrSingular = errors.New("blas: matrix is singular")

// FactorError is the failure of a factorization at one column of the
// factored matrix: the leading minor of order Index+1 is not positive
// definite (Err is ErrNotPositiveDefinite) or pivot Index is exactly zero
// (Err is ErrSingular). Callers that factor a sub-matrix renumber Index to
// the whole matrix.
type FactorError struct {
	Err   error
	Index int
}

func (e *FactorError) Error() string {
	if e.Err == ErrSingular {
		return fmt.Sprintf("%v: zero pivot at %d", e.Err, e.Index)
	}
	return fmt.Sprintf("%v: leading minor of order %d", e.Err, e.Index+1)
}

// Unwrap returns the sentinel, so errors.Is matches it.
func (e *FactorError) Unwrap() error { return e.Err }

// Potrf computes the in-place Cholesky factorization of the n x n matrix A:
// A = L*L^T (uplo Lower, L written to the lower triangle) or A = U^T*U
// (uplo Upper). Only the referenced triangle is read and written; the
// opposite triangle is left untouched. On failure A holds the columns
// factored before the failing minor, as the unblocked loop leaves them.
// It is PotrfParallel with a nil pool.
func Potrf[F Float](uplo byte, n int, a []F, lda int) error {
	return PotrfParallel(nil, uplo, n, a, lda)
}

// PotrfParallel is Potrf with the GEMM step of each column block fanned
// out over the pool's workers (a nil pool runs inline).
//
// The factor's rows (rows of L, or columns of A for Upper, which are
// rows of U^T) are read as unit-stride slices: for Lower each row is
// mirrored into a pooled row-major buffer as its elements are computed.
// Columns are factored left-looking in blocks of blockWidth: for block
// [j0, j1) one exact GEMM with beta = 0 sums the terms k < j0 of every
// element of the block's columns, and the column loop continues those
// accumulators over k in [j0, j), four rows per pass over row j. Every
// element still receives its terms one rounded multiply-then-add at a
// time in increasing k, starting from +0 (see trsmSolve.sides for why
// the GEMM prefix is that sequence), so results are bitwise identical to
// the unblocked loop at any worker count.
func PotrfParallel[F Float](p *parallel.Pool, uplo byte, n int, a []F, lda int) error {
	if uplo != Upper && uplo != Lower {
		return badShape("potrf: bad uplo %q", uplo)
	}
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	nb := blockWidth[F](n)
	// For block [j0, j1) the GEMM step leaves the sum over k < j0 of
	// element (i, j) at sums[(j-j0) + (i-j0)*(j1-j0)]; one block needs none.
	seedLen := 0
	if nb < n {
		seedLen = nb * n
	}
	mirror := 0
	if uplo == Lower {
		mirror = n * n
	}
	bufs := triBufPool.Get().(*gemmBuffers)
	defer triBufPool.Put(bufs)
	ws, _ := packSlices[F](bufs, mirror+seedLen, 0)
	sums := ws[mirror:]
	// Element (i, j), i >= j, of the factor R (L, or U^T for Upper) is
	// a[i*iStep+j*jStep]; row i of R starts at rows[i*ld].
	rows, ld, iStep, jStep := a, lda, lda, 1
	if uplo == Lower {
		rows, ld, iStep, jStep = ws[:mirror], n, 1, lda
	}
	for j0 := 0; j0 < n; j0 += nb {
		j1 := min(j0+nb, n)
		w := j1 - j0
		var seed []F
		if j0 > 0 {
			// S = R(j0:j1, 0:j0) * R(j0:n, 0:j0)^T.
			seed = sums
			if err := GemmParallel(p, Trans, NoTrans, w, n-j0, j0, 1,
				rows[j0*ld:], ld, rows[j0*ld:], ld, 0, seed, w); err != nil {
				return err
			}
		}
		for j := j0; j < j1; j++ {
			// Diagonal: a[j,j] = sqrt(a[j,j] - sum_k R[j,k]²).
			rj := rows[j*ld+j0 : j*ld+j]
			var s F
			if seed != nil {
				s = seed[(j-j0)*(w+1)]
			}
			for _, v := range rj {
				s += v * v
			}
			d := a[j+j*lda] - s
			if d <= 0 {
				return errorMinor(j)
			}
			d = F(math.Sqrt(float64(d)))
			a[j+j*lda] = d
			// Below the diagonal: R[i,j] = (a[i,j] - sum_k R[i,k]·R[j,k]) / d.
			i := j + 1
			for ; i+4 <= n; i += 4 {
				r0 := rows[i*ld+j0 : i*ld+j]
				r1 := rows[(i+1)*ld+j0 : (i+1)*ld+j]
				r2 := rows[(i+2)*ld+j0 : (i+2)*ld+j]
				r3 := rows[(i+3)*ld+j0 : (i+3)*ld+j]
				var s0, s1, s2, s3 F
				if seed != nil {
					at := (j - j0) + (i-j0)*w
					s0, s1, s2, s3 = seed[at], seed[at+w], seed[at+2*w], seed[at+3*w]
				}
				for k, v := range rj {
					s0 += r0[k] * v
					s1 += r1[k] * v
					s2 += r2[k] * v
					s3 += r3[k] * v
				}
				for o, s := range [4]F{s0, s1, s2, s3} {
					at := (i+o)*iStep + j*jStep
					x := (a[at] - s) / d
					a[at] = x
					rows[(i+o)*ld+j] = x
				}
			}
			for ; i < n; i++ {
				ri := rows[i*ld+j0 : i*ld+j]
				var s F
				if seed != nil {
					s = seed[(j-j0)+(i-j0)*w]
				}
				for k, v := range rj {
					s += ri[k] * v
				}
				at := i*iStep + j*jStep
				x := (a[at] - s) / d
				a[at] = x
				rows[i*ld+j] = x
			}
		}
	}
	return nil
}

func errorMinor(j int) error { return &FactorError{Err: ErrNotPositiveDefinite, Index: j} }

// Getrf computes the in-place unpivoted LU factorization of the n x n
// matrix A = L*U with L unit lower triangular (its unit diagonal is not
// stored) and U upper triangular. Without pivoting the factorization
// requires every leading minor to be nonsingular — callers supply
// diagonally dominant (or otherwise pivot-free) matrices, matching the
// tiled right-looking planner, which models no row exchanges.
//
// Step k computes column k's multipliers, then updates the trailing
// matrix one unit-stride column at a time. Each a[i,j] receives the same
// single a[i,j] -= l_i·a[k,j] at the same step k as in a row-by-row
// update, so the result does not depend on the loop order.
func Getrf[F Float](n int, a []F, lda int) error {
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		p := a[k+k*lda]
		if p == 0 {
			return &FactorError{Err: ErrSingular, Index: k}
		}
		l := a[k+1+k*lda : n+k*lda]
		for i := range l {
			l[i] /= p
		}
		for j := k + 1; j < n; j++ {
			col := a[k+1+j*lda : n+j*lda]
			akj := a[k+j*lda]
			for i, li := range l {
				col[i] -= li * akj
			}
		}
	}
	return nil
}
