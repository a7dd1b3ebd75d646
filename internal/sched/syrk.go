package sched

import (
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
)

// SyrkOpts is the symmetric rank-k update request:
// C[NxN] = alpha·A·Aᵀ + beta·C (Trans == NoTrans, A stored NxK) or
// C[NxN] = alpha·Aᵀ·A + beta·C (Trans == Trans,  A stored KxN).
// The full C is written (the framework has no packed triangular storage).
//
// It runs through the generic level-3 tile scheduler — the paper's
// extension recipe in action: a new BLAS routine needs only a request that
// maps its operands onto the tiled gemm path (here, B aliases A with the
// complementary transpose). Note the mapped execution fetches A's tiles
// through both operand caches, so the h2d traffic is 2·|A| rather than
// |A|; a dedicated syrk scheduler could share the caches, which the paper
// leaves as routine-specific fine-tuning.
type SyrkOpts struct {
	Dtype       kernelmodel.Dtype
	Trans       byte
	N, K        int
	Alpha, Beta float64
	A, C        *Matrix
	// T is the square tiling size.
	T int
}

func (opts SyrkOpts) resolve(c *Context) (call, error) {
	trans, err := normTrans(opts.Trans)
	if err != nil {
		return call{}, fmt.Errorf("sched: syrk: %w", err)
	}
	transA, transB := blas.NoTrans, blas.Trans
	if trans == blas.Trans {
		transA, transB = blas.Trans, blas.NoTrans
	}
	return GemmOpts{
		Dtype:  opts.Dtype,
		TransA: transA, TransB: transB,
		M: opts.N, N: opts.N, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta,
		A: opts.A, B: opts.A, C: opts.C,
		T: opts.T,
	}.resolve(c)
}
