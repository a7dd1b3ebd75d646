package sched

import "cocopelia/internal/blas"

// The comparator libraries the paper evaluates CoCoPeLia against run as
// requests like every other routine: their schedules are plans, built once
// per measured cell, replayed like every other plan and pinned by golden
// dumps.

// freeBytes is the device memory free now: the staging budget of the
// comparators that size their staging to the device.
func (c *Context) freeBytes() int64 {
	dev := c.rt.Device()
	return dev.Testbed().GPU.MemBytes - dev.MemUsed()
}

// GemmXtOpts is the gemm request of the cuBLASXt comparator,
// C = alpha*A*B + beta*C with NoTrans operands: T is the block dimension
// (cublasXtSetBlockDim), output tiles are dealt round-robin to
// plan.XtStreams worker streams, and inputs are fetched again for every
// sub-kernel (the "gemm-cublasxt" plan). The worker count is sized to the
// device memory free at planning time.
type GemmXtOpts GemmOpts

func (opts GemmXtOpts) resolve(c *Context) (call, error) {
	g := GemmOpts(opts)
	if err := c.validateNoTrans("gemm-cublasxt", g); err != nil {
		return call{}, err
	}
	return level3Call("gemm-cublasxt", g, blas.NoTrans, blas.NoTrans), nil
}

// BlasxStaticT is BLASX's compile-time tile size (Wang et al. [8]; the
// paper uses this value for its BLASX baseline).
const BlasxStaticT = 2048

// BlasxTile returns BLASX's static tile size clamped to the problem.
func BlasxTile(m, n, k int) int { return min(BlasxStaticT, m, n, k) }

// GemmBlasxOpts is the gemm request of the BLASX comparator, the
// reuse-aware BLAS the paper evaluates against (the "gemm-blasx" plan).
// Its schedule is CoCoPeLia's full-reuse tile schedule (input tiles cross
// the link once, as in BLASX's device-resident tile cache), run at the
// caller's tile size — the comparator passes BLASX's static one
// (BlasxTile) — with BLASX's two fixed runtime costs: tile-map management
// before every sub-kernel (plan.BlasxDispatchS) and a compute stream that
// waits for each output tile's write-back before the next tile.
type GemmBlasxOpts GemmOpts

func (opts GemmBlasxOpts) resolve(c *Context) (call, error) {
	return c.gemmCall("gemm-blasx", GemmOpts(opts))
}

// UnifiedPrefetchElems is the unified-memory prefetch granularity in
// float64 elements (2 MiB, the migration chunk commonly used with prefetch
// hints).
const UnifiedPrefetchElems = (2 << 20) / 8

// AxpyUnifiedOpts is the daxpy request y += alpha*x of the unified-memory
// comparator: managed mirrors prefetched in UnifiedPrefetchElems chunks and
// y migrated back on demand after the last kernel (the "axpy-unified"
// plan).
type AxpyUnifiedOpts struct {
	N     int
	Alpha float64
	X, Y  *Vector
}

func (opts AxpyUnifiedOpts) resolve(c *Context) (call, error) {
	if err := c.validateAxpy(opts.N, opts.X, opts.Y); err != nil {
		return call{}, err
	}
	return axpyCall("axpy-unified", opts.N, UnifiedPrefetchElems, opts.Alpha, opts.X, opts.Y), nil
}
