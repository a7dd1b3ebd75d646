// Package blasx implements a comparator library modeled on BLASX (Wang et
// al. [8]), the reuse-aware multi-GPU BLAS the paper evaluates against:
//
//   - a runtime tile-management engine with a device-resident tile cache,
//     so input tiles cross the link once (like CoCoPeLia, unlike
//     cuBLASXt) — here provided by the shared tile scheduler;
//   - a STATIC tile size, fixed at compile time to T = 2048 (the paper
//     uses this value for its BLASX baseline), clamped to the problem;
//   - a small per-task dispatch overhead for the runtime tile-map
//     management that BLASX performs on every sub-kernel;
//   - compute-blocking output write-backs: BLASX's tile manager confirms
//     each completed output tile's host copy before recycling the cache
//     slot, so write-back traffic partially serializes with compute —
//     unlike CoCoPeLia's fully asynchronous d2h stream.
package blasx

import (
	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/operand"
	"cocopelia/internal/sched"
)

// StaticT is BLASX's compile-time tile size.
const StaticT = 2048

// DispatchOverheadS models the runtime tile-management cost per sub-kernel.
const DispatchOverheadS = 4e-6

// Library is a BLASX-style handle. It reuses device buffers and streams
// across calls.
type Library struct {
	ctx *sched.Context
}

// New creates a BLASX-style library on the runtime.
func New(rt *cudart.Runtime, backed bool) *Library {
	ctx := sched.NewContext(rt, backed)
	ctx.SetDispatchOverhead(DispatchOverheadS)
	ctx.SetBlockingWriteback(true)
	return &Library{ctx: ctx}
}

// Runtime returns the underlying runtime.
func (l *Library) Runtime() *cudart.Runtime { return l.ctx.Runtime() }

// ReleaseAll frees the pooled tile buffers.
func (l *Library) ReleaseAll() error { return l.ctx.ReleaseAll() }

// TileFor returns the static tile size clamped to the problem dimensions.
func TileFor(m, n, k int) int {
	t := StaticT
	for _, d := range []int{m, n, k} {
		if d < t {
			t = d
		}
	}
	return t
}

// GemmOpts parameterizes a BLASX-style gemm call. There is no tile-size
// parameter: BLASX fixes it statically.
type GemmOpts struct {
	Dtype       kernelmodel.Dtype
	M, N, K     int
	Alpha, Beta float64
	A, B, C     *operand.Matrix
}

// Gemm executes C = alpha*A*B + beta*C with the static tile size.
func (l *Library) Gemm(opts GemmOpts) (operand.Result, error) {
	return l.ctx.Run(sched.GemmOpts{
		Dtype: opts.Dtype,
		M:     opts.M, N: opts.N, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta,
		A: opts.A, B: opts.B, C: opts.C,
		T: TileFor(opts.M, opts.N, opts.K),
	})
}
