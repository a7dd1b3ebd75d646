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

// GemvOpts is the level-2 request y = alpha*A*x + beta*y for an M x N
// matrix A. Its plan is the level-2 path of the tile scheduler (Section
// III-C: two tiled dimensions, square tiling, modest vector reuse): A is
// split into TxT tiles each fetched once, x chunks are fetched once and
// reused down each tile column, and y chunks accumulate on the device and
// are written back once after their last partial product.
type GemvOpts struct {
	M, N        int
	Alpha, Beta float64
	A           *Matrix
	X, Y        *Vector
	// T is the square tiling size applied to both matrix dimensions.
	T int
}

func (opts GemvOpts) resolve(c *Context) (call, error) {
	if opts.M <= 0 || opts.N <= 0 {
		return call{}, fmt.Errorf("sched: non-positive gemv dims %dx%d", opts.M, opts.N)
	}
	if opts.T <= 0 {
		return call{}, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	if err := opts.A.Validate("A", kernelmodel.F64, c.backed); err != nil {
		return call{}, err
	}
	if err := opts.X.Validate("x", c.backed); err != nil {
		return call{}, err
	}
	if err := opts.Y.Validate("y", c.backed); err != nil {
		return call{}, err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.N || opts.X.N != opts.N || opts.Y.N != opts.M {
		return call{}, errors.New("sched: operand shapes inconsistent with m, n")
	}
	spec := plan.GemvSpec{
		M: opts.M, N: opts.N,
		Alpha: opts.Alpha, Beta: opts.Beta,
		LocA: opts.A.Loc, LocX: opts.X.Loc, LocY: opts.Y.Loc,
		T: opts.T,
	}
	return call{
		key: plan.Key{
			Routine: "gemv", Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: opts.M, N: opts.N, T: opts.T,
			Alpha: math.Float64bits(opts.Alpha), Beta: math.Float64bits(opts.Beta),
			Locs: [3]model.Loc{opts.A.Loc, opts.X.Loc, opts.Y.Loc}, NLocs: 3,
		},
		args:  [3]plan.Arg{{Mat: opts.A}, {Vec: opts.X}, {Vec: opts.Y}},
		build: func() *plan.Plan { return plan.BuildGemv(spec) },
	}, nil
}
