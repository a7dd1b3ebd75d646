package sched

import "cocopelia/internal/blas"

// The comparator libraries the paper evaluates CoCoPeLia against run as
// requests like every other routine: their schedules are plans, built once
// per measured cell, replayed from a compiled tape and pinned by golden
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

// BlasxDispatchS models the runtime tile-management cost BLASX pays per
// sub-kernel.
const BlasxDispatchS = 4e-6

// BlasxTile returns BLASX's static tile size clamped to the problem.
func BlasxTile(m, n, k int) int { return min(BlasxStaticT, m, n, k) }

// GemmBlasxOpts is the gemm request of the BLASX comparator, the
// reuse-aware BLAS the paper evaluates against. Its schedule is CoCoPeLia's
// full-reuse tile schedule (input tiles cross the link once, as in BLASX's
// device-resident tile cache), run at a static tile size (BlasxTile) and
// with two runtime costs: DispatchS of tile-map management before every
// sub-kernel, and, with BlockingWriteback, a compute stream that waits for
// each output tile's write-back before the next tile, because BLASX's
// tile manager confirms an output tile's host copy before recycling its
// cache slot. The comparator sets BlasxDispatchS and true.
type GemmBlasxOpts struct {
	GemmOpts
	DispatchS         float64
	BlockingWriteback bool
}

func (opts GemmBlasxOpts) resolve(c *Context) (call, error) {
	return c.gemmCall(opts.GemmOpts, opts.DispatchS, opts.BlockingWriteback)
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
