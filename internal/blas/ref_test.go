package blas

import "math"

// This file keeps the original unblocked Trsm, Potrf and Getrf loops,
// verbatim, as differential oracles for the packed kernels (the role
// GemmNaive plays for the GEMM engine): the production kernels must
// produce Float64bits-identical output to these for every input,
// including the partially factored state left behind on failure.

// trsmRef is the reference Trsm: it solves op(A)*X = alpha*B (side Left)
// or X*op(A) = alpha*B (side Right) for X, overwriting B, where A is
// triangular per uplo/diag and B is m x n.
func trsmRef[F Float](side, uplo, transA, diag byte, m, n int, alpha F, a []F, lda int, b []F, ldb int) error {
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
	// Effective triangle orientation after the transpose.
	lower := uplo == Lower
	if transA == Trans {
		lower = !lower
	}
	at := func(i, j int) F {
		if transA == Trans {
			i, j = j, i
		}
		return a[i+j*lda]
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				b[i+j*ldb] *= alpha
			}
		}
	}
	solveCol := func(x []F, stride, k int) {
		// Solves the k x k system op(A)*y = x in place, where x is strided.
		if lower {
			for i := 0; i < k; i++ {
				var s F
				for l := 0; l < i; l++ {
					s += at(i, l) * x[l*stride]
				}
				x[i*stride] -= s
				if diag == NonUnit {
					x[i*stride] /= at(i, i)
				}
			}
		} else {
			for i := k - 1; i >= 0; i-- {
				var s F
				for l := i + 1; l < k; l++ {
					s += at(i, l) * x[l*stride]
				}
				x[i*stride] -= s
				if diag == NonUnit {
					x[i*stride] /= at(i, i)
				}
			}
		}
	}
	if side == Left {
		for j := 0; j < n; j++ {
			solveCol(b[j*ldb:], 1, m)
		}
	} else {
		// X*op(A) = B  <=>  op(A)^T * X^T = B^T: solve rows of B against
		// the transposed triangle.
		lower = !lower
		origAt := at
		at = func(i, j int) F { return origAt(j, i) }
		for i := 0; i < m; i++ {
			solveCol(b[i:], ldb, n)
		}
	}
	return nil
}

// potrfRef is the reference Potrf: the in-place Cholesky factorization
// A = L*L^T (uplo Lower) or A = U^T*U (uplo Upper), reading and writing
// only the referenced triangle.
func potrfRef[F Float](uplo byte, n int, a []F, lda int) error {
	if uplo != Upper && uplo != Lower {
		return badShape("potrf: bad uplo %q", uplo)
	}
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	if uplo == Lower {
		for j := 0; j < n; j++ {
			// Diagonal: a[j,j] = sqrt(a[j,j] - sum_k L[j,k]²).
			var s F
			row := a[j:]
			for k := 0; k < j; k++ {
				v := row[k*lda]
				s += v * v
			}
			d := a[j+j*lda] - s
			if d <= 0 {
				return errorMinor(j)
			}
			d = F(math.Sqrt(float64(d)))
			a[j+j*lda] = d
			// Column below: L[i,j] = (a[i,j] - sum_k L[i,k]·L[j,k]) / d.
			for i := j + 1; i < n; i++ {
				var s F
				for k := 0; k < j; k++ {
					s += a[i+k*lda] * a[j+k*lda]
				}
				a[i+j*lda] = (a[i+j*lda] - s) / d
			}
		}
		return nil
	}
	// Upper: factor the transposed problem over the upper triangle.
	for j := 0; j < n; j++ {
		var s F
		col := a[j*lda : j*lda+j]
		for _, v := range col {
			s += v * v
		}
		d := a[j+j*lda] - s
		if d <= 0 {
			return errorMinor(j)
		}
		d = F(math.Sqrt(float64(d)))
		a[j+j*lda] = d
		for i := j + 1; i < n; i++ {
			var s F
			for k := 0; k < j; k++ {
				s += a[k+j*lda] * a[k+i*lda]
			}
			a[j+i*lda] = (a[j+i*lda] - s) / d
		}
	}
	return nil
}

// getrfRef is the reference Getrf: the in-place unpivoted LU
// factorization A = L*U with L unit lower triangular (unit diagonal not
// stored), updating the trailing matrix row by row.
func getrfRef[F Float](n int, a []F, lda int) error {
	if err := checkMatrix("A", n, n, lda, a); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		p := a[k+k*lda]
		if p == 0 {
			return &FactorError{Err: ErrSingular, Index: k}
		}
		for i := k + 1; i < n; i++ {
			l := a[i+k*lda] / p
			a[i+k*lda] = l
			for j := k + 1; j < n; j++ {
				a[i+j*lda] -= l * a[k+j*lda]
			}
		}
	}
	return nil
}
