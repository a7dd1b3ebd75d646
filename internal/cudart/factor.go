package cudart

// Factorization tile kernels: the device-side POTRF/GETRF/TRSM/SYRK calls
// the task-graph plans launch. Timing comes from the per-routine kernel
// ground-truth models (memoized like the flat BLAS kinds); arithmetic runs
// on backed buffers through the reference CPU kernels, so a backed
// factorization replay produces real numerics tile by tile.

import (
	"errors"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
)

// kernelName picks the dtype-prefixed kernel name ("dpotrf"/"spotrf", ...).
func kernelName(dt kernelmodel.Dtype, d, s string) string {
	if dt == kernelmodel.F32 {
		return s
	}
	return d
}

// PotrfAsync enqueues the in-place Cholesky factorization of the n x n
// tile at A[offA] (referenced triangle per uplo). A non-positive-definite
// tile fails the payload, and Sync returns the error (wrapping
// blas.ErrNotPositiveDefinite), like every other payload failure.
func (s *Stream) PotrfAsync(uplo byte, n int, a *DevBuffer, offA int64, lda int) (*Event, error) {
	dt := a.dt
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindPotrf, Dtype: dt, N: n})
	var payload func()
	if a.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Potrf(uplo, n, a.f64[offA:], lda)
			} else {
				err = blas.Potrf(uplo, n, a.f32[offA:], lda)
			}
			if err != nil {
				s.rt.payloadFailed("potrf", err)
			}
		}
	}
	o := s.allocKernelOp(kernelName(dt, "dpotrf", "spotrf"), dur, payload)
	return s.enqueue(o), nil
}

// GetrfAsync enqueues the in-place unpivoted LU factorization of the
// n x n tile at A[offA].
func (s *Stream) GetrfAsync(n int, a *DevBuffer, offA int64, lda int) (*Event, error) {
	dt := a.dt
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindGetrf, Dtype: dt, N: n})
	var payload func()
	if a.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Getrf(n, a.f64[offA:], lda)
			} else {
				err = blas.Getrf(n, a.f32[offA:], lda)
			}
			if err != nil {
				s.rt.payloadFailed("getrf", err)
			}
		}
	}
	o := s.allocKernelOp(kernelName(dt, "dgetrf", "sgetrf"), dur, payload)
	return s.enqueue(o), nil
}

// TrsmAsync enqueues the triangular tile solve op(A)*X = alpha*B (side L)
// or X*op(A) = alpha*B (side R), overwriting the m x n tile B.
func (s *Stream) TrsmAsync(side, uplo, transA, diag byte, m, n int, alpha float64,
	a *DevBuffer, offA int64, lda int, b *DevBuffer, offB int64, ldb int) (*Event, error) {

	dt := b.dt
	if a.dt != dt {
		return nil, errors.New("cudart: trsm operand dtype mismatch")
	}
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindTrsm, Dtype: dt, Side: side, M: m, N: n})
	var payload func()
	if b.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Trsm(side, uplo, transA, diag, m, n, alpha,
					a.f64[offA:], lda, b.f64[offB:], ldb)
			} else {
				err = blas.Trsm(side, uplo, transA, diag, m, n, float32(alpha),
					a.f32[offA:], lda, b.f32[offB:], ldb)
			}
			if err != nil {
				s.rt.payloadFailed("trsm", err)
			}
		}
	}
	o := s.allocKernelOp(kernelName(dt, "dtrsm", "strsm"), dur, payload)
	return s.enqueue(o), nil
}

// SyrkAsync enqueues the symmetric rank-k tile update
// C = alpha*A*A^T + beta*C (trans 'N') or alpha*A^T*A + beta*C ('T') for
// the n x n tile C. The uplo flag rides along for the timing model's sake
// only — the CPU payload writes the full tile (the framework has no packed
// triangular storage), which is harmless because factorization plans never
// read the unreferenced triangle.
func (s *Stream) SyrkAsync(uplo, trans byte, n, k int, alpha float64,
	a *DevBuffer, offA int64, lda int, beta float64, c *DevBuffer, offC int64, ldc int) (*Event, error) {

	_ = uplo
	dt := c.dt
	if a.dt != dt {
		return nil, errors.New("cudart: syrk operand dtype mismatch")
	}
	dur := s.rt.kernelTime(kernelmodel.Shape{Kind: kernelmodel.KindSyrk, Dtype: dt, N: n, K: k})
	var payload func()
	if c.Backed() {
		payload = func() {
			var err error
			if dt == kernelmodel.F64 {
				err = blas.Syrk(trans, n, k, alpha, a.f64[offA:], lda, beta, c.f64[offC:], ldc)
			} else {
				err = blas.Syrk(trans, n, k, float32(alpha), a.f32[offA:], lda, float32(beta), c.f32[offC:], ldc)
			}
			if err != nil {
				s.rt.payloadFailed("syrk", err)
			}
		}
	}
	o := s.allocKernelOp(kernelName(dt, "dsyrk", "ssyrk"), dur, payload)
	return s.enqueue(o), nil
}
