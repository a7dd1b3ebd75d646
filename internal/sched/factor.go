package sched

import (
	"errors"
	"fmt"
	"math"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
)

// The tiled factorization requests. Their plans are task graphs mixing
// kernel kinds, so the factorizations get plan caching, pending
// (enqueue-only) composition and replay through the same request path
// as the flat BLAS routines.

// CholeskyOpts is the tiled Cholesky request: the in-place
// lower-triangular factorization A = L*L^T of the N x N matrix A. On
// backed contexts A's lower triangle is overwritten by L. Tiles strictly
// above the diagonal are never touched; above-diagonal entries inside
// diagonal tiles hold intermediate update values on return (the SYRK
// payload writes full tiles: there is no packed triangular storage).
type CholeskyOpts struct {
	Dtype kernelmodel.Dtype
	N     int
	A     *Matrix
	// T is the square tiling size.
	T int
}

// LUOpts is the tiled unpivoted LU request: the in-place factorization
// A = L*U of the N x N matrix A. The schedule models no row exchanges;
// backed callers supply pivot-free (e.g. diagonally dominant) matrices.
type LUOpts struct {
	Dtype kernelmodel.Dtype
	N     int
	A     *Matrix
	T     int
}

// factorCall validates the square operand shared by the cholesky and lu
// requests and returns their call. Their keys carry alpha = 1 and beta = 0:
// the factorizations have no scalars.
func (c *Context) factorCall(routine string, dt kernelmodel.Dtype, n, T int, a *Matrix) (call, error) {
	if n <= 0 {
		return call{}, fmt.Errorf("sched: non-positive %s dimension %d", routine, n)
	}
	if T <= 0 {
		return call{}, fmt.Errorf("sched: non-positive tiling size %d", T)
	}
	if err := a.Validate("A", dt, c.backed); err != nil {
		return call{}, err
	}
	if a.Rows != n || a.Cols != n {
		return call{}, fmt.Errorf("sched: %s operand is %dx%d, want %dx%d", routine, a.Rows, a.Cols, n, n)
	}
	return call{
		key: plan.Key{
			Routine: routine, Dtype: dt, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: n, N: n, T: T, Alpha: math.Float64bits(1),
			Locs: [3]model.Loc{a.Loc}, NLocs: 1,
		},
		args: [3]plan.Arg{{Mat: a}},
	}, nil
}

func (opts CholeskyOpts) resolve(c *Context) (call, error) {
	return c.factorCall("cholesky", opts.Dtype, opts.N, opts.T, opts.A)
}

func (opts LUOpts) resolve(c *Context) (call, error) {
	return c.factorCall("lu", opts.Dtype, opts.N, opts.T, opts.A)
}

// TrsmOpts is the tiled triangular solve request A*X = alpha*B with A the
// M x M lower triangle and X overwriting the M x N operand B (on backed
// contexts). The planner covers the left/lower/no-trans case; the flags
// exist so the zero value reads as the supported combination and diverging
// requests fail loudly here rather than building a wrong schedule.
type TrsmOpts struct {
	Dtype                    kernelmodel.Dtype
	Side, Uplo, TransA, Diag byte
	M, N                     int
	Alpha                    float64
	A, B                     *Matrix
	T                        int
}

func (opts TrsmOpts) resolve(c *Context) (call, error) {
	if opts.M <= 0 || opts.N <= 0 {
		return call{}, fmt.Errorf("sched: non-positive trsm dims %dx%d", opts.M, opts.N)
	}
	if opts.T <= 0 {
		return call{}, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	if opts.Side != 0 && opts.Side != blas.Left {
		return call{}, fmt.Errorf("sched: trsm planner covers side %q only, got %q", blas.Left, opts.Side)
	}
	if opts.Uplo != 0 && opts.Uplo != blas.Lower {
		return call{}, fmt.Errorf("sched: trsm planner covers uplo %q only, got %q", blas.Lower, opts.Uplo)
	}
	if opts.TransA != 0 && opts.TransA != blas.NoTrans {
		return call{}, fmt.Errorf("sched: trsm planner covers trans %q only, got %q", blas.NoTrans, opts.TransA)
	}
	var diag byte
	switch opts.Diag {
	case 0, blas.NonUnit:
		diag = blas.NonUnit
	case blas.Unit:
		diag = blas.Unit
	default:
		return call{}, fmt.Errorf("sched: bad trsm diag flag %q", opts.Diag)
	}
	dt := opts.Dtype
	if err := opts.A.Validate("A", dt, c.backed); err != nil {
		return call{}, err
	}
	if err := opts.B.Validate("B", dt, c.backed); err != nil {
		return call{}, err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.M ||
		opts.B.Rows != opts.M || opts.B.Cols != opts.N {
		return call{}, errors.New("sched: trsm operand shapes inconsistent with m, n")
	}
	// The trsm plan reads alpha as both scalars: Beta scales each tile's
	// first accumulation, Alpha the first row block's diagonal solve.
	alpha := math.Float64bits(opts.Alpha)
	return call{
		key: plan.Key{
			Routine: "trsm", Dtype: dt, TransA: blas.NoTrans, TransB: blas.NoTrans, Diag: diag,
			M: opts.M, N: opts.N, T: opts.T, Alpha: alpha, Beta: alpha,
			Locs: [3]model.Loc{opts.A.Loc, opts.B.Loc}, NLocs: 2,
		},
		args: [3]plan.Arg{{Mat: opts.A}, {Mat: opts.B}},
	}, nil
}
