// Package sched implements the CoCoPeLia library's tile scheduler (the
// paper's Section IV-C): square tiling, per-operation CUDA streams (one for
// h2d, one for d2h, one for kernel execution), full data reuse (each input
// tile crosses the link exactly once), location-aware transfers, and GPU
// buffer/stream reuse across calls.
//
// Every routine is a Request (GemmOpts, GemmNoReuseOpts, GemvOpts,
// AxpyOpts, SyrkOpts, CholeskyOpts, LUOpts, TrsmOpts, and the comparator
// libraries' GemmXtOpts, GemmBlasxOpts and AxpyUnifiedOpts) and reaches
// the streams through one path: Context.Plan validates the request and
// builds its deterministic tile-operation plan (internal/plan),
// Context.Enqueue replays a plan built for the request, and Context.Run
// does both and drains the engine. Plans are pure functions of the
// request's plan.Key (and, for the comparators that size their staging to
// it, the free device memory), so callers that repeat an invocation shape
// (campaign sweeps, multi-GPU panels) build the plan once and Enqueue it
// many times; the replay is event-identical to a fresh Run.
package sched

import (
	"errors"
	"fmt"
	"math"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
)

// Matrix, Vector and Result are the shared operand descriptors.
type (
	// Matrix aliases operand.Matrix for caller convenience.
	Matrix = operand.Matrix
	// Vector aliases operand.Vector.
	Vector = operand.Vector
	// Result aliases operand.Result.
	Result = operand.Result
)

// poolKey identifies reusable device buffers by dtype and capacity.
type poolKey struct {
	dt    kernelmodel.Dtype
	elems int64
}

// poolBucket holds the free buffers of one shape. Buckets live in a slice
// rather than a map: a call touches only a handful of shapes, the linear
// scan is cheaper than hashing on the per-tile acquire path, and iteration
// order is deterministic.
type poolBucket struct {
	key  poolKey
	bufs []*cudart.DevBuffer
}

// Context holds the reusable state of the CoCoPeLia library on one device:
// the operation streams, the tile-buffer pool and the plan executor's
// replay scratch. Reusing a Context across calls emulates the paper's
// iterative use-case (no per-call allocation/stream-creation overhead after
// the first call).
type Context struct {
	rt *cudart.Runtime
	// streams are the streams plans index (plan.Op.Stream): h2d, d2h and
	// compute first, then the further worker streams the first plan that
	// needs them (the cuBLASXt schedule) creates.
	streams []*cudart.Stream
	// drain is the stream OnDrained's callbacks wait on, created on first
	// use.
	drain  *cudart.Stream
	pool   []poolBucket
	backed bool

	// exec replays tile plans onto the streams; it owns the per-call
	// scratch (event table, slot bindings, acquired-buffer list), so the
	// replay loops allocate nothing once the context is warm.
	exec plan.Executor
}

// NewContext creates a scheduler context. backed selects functional runs
// (real arithmetic on real storage); timing-only runs pass false.
func NewContext(rt *cudart.Runtime, backed bool) *Context {
	c := &Context{rt: rt, backed: backed}
	c.growStreams(int(plan.StreamComp) + 1)
	return c
}

// growStreams creates streams until the context owns n.
func (c *Context) growStreams(n int) {
	for len(c.streams) < n {
		c.streams = append(c.streams, c.rt.NewStream())
	}
}

// Runtime returns the underlying CUDA-like runtime.
func (c *Context) Runtime() *cudart.Runtime { return c.rt }

// Reset returns the context to its just-created state while keeping its
// streams and the executor's replay scratch. The tile pool is
// emptied — the pooled buffers are dropped, not freed, because callers
// reset the device's memory accounting wholesale in the same breath — so
// the next call's Acquire sequence hits the allocator exactly as a fresh
// context's would. The bucket slice and each bucket's backing array are
// kept, so steady-state reuse allocates nothing.
func (c *Context) Reset() {
	for i := range c.pool {
		bk := &c.pool[i]
		for j := range bk.bufs {
			bk.bufs[j] = nil
		}
		bk.bufs = bk.bufs[:0]
	}
}

// target is the execution surface p replays onto, with every stream p
// indexes.
func (c *Context) target(p *plan.Plan) plan.Target {
	c.growStreams(p.Streams)
	return plan.Target{Streams: c.streams, Alloc: c, Backed: c.backed}
}

// bucket returns the pool bucket for key, or nil.
func (c *Context) bucket(key poolKey) *poolBucket {
	for i := range c.pool {
		if c.pool[i].key == key {
			return &c.pool[i]
		}
	}
	return nil
}

// Acquire returns a device buffer of at least elems elements, reusing the
// pool when possible; it implements plan.Allocator. When the device is out
// of memory, pooled buffers of OTHER shapes are evicted largest-first — one
// at a time, retrying the allocation after each — so the current tile
// shape's pool survives long sweeps over many tile sizes.
//
//cocolint:hotpath
func (c *Context) Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error) {
	key := poolKey{dt, elems}
	if bk := c.bucket(key); bk != nil && len(bk.bufs) > 0 {
		n := len(bk.bufs) - 1
		b := bk.bufs[n]
		bk.bufs[n] = nil
		bk.bufs = bk.bufs[:n]
		return b, nil
	}
	//lint:ignore hotpath pool miss allocates the buffer it will pool; steady-state replays of a warmed context hit the bucket above
	return c.acquireSlow(key)
}

// acquireSlow is Acquire's pool-miss path: allocate the shape's first
// buffer, evicting pooled buffers of other shapes largest-first while the
// device is out of memory.
func (c *Context) acquireSlow(key poolKey) (*cudart.DevBuffer, error) {
	b, err := c.rt.Malloc(key.dt, key.elems, c.backed)
	for errors.Is(err, device.ErrOutOfMemory) {
		evicted, ferr := c.evictLargest(key)
		if ferr != nil {
			return nil, ferr
		}
		if !evicted {
			break
		}
		b, err = c.rt.Malloc(key.dt, key.elems, c.backed)
	}
	return b, err
}

// evictLargest frees one pooled buffer of the largest byte size among the
// shapes other than keep, reporting whether anything was freed.
func (c *Context) evictLargest(keep poolKey) (bool, error) {
	best := -1
	var bestBytes int64
	for i := range c.pool {
		bk := &c.pool[i]
		if bk.key == keep || len(bk.bufs) == 0 {
			continue
		}
		if bytes := bk.key.elems * bk.key.dt.Size(); bytes > bestBytes {
			best, bestBytes = i, bytes
		}
	}
	if best < 0 {
		return false, nil
	}
	bk := &c.pool[best]
	n := len(bk.bufs) - 1
	b := bk.bufs[n]
	bk.bufs[n] = nil
	bk.bufs = bk.bufs[:n]
	if err := c.rt.Free(b); err != nil {
		return false, err
	}
	return true, nil
}

// Release returns a buffer to the pool for reuse by later calls; it
// implements plan.Allocator.
//
//cocolint:hotpath
func (c *Context) Release(b *cudart.DevBuffer) {
	key := poolKey{b.Dtype(), b.Elems()}
	if bk := c.bucket(key); bk != nil {
		//lint:ignore hotpath bucket free list reuses its backing array; it grows only to the shape's peak pooled count
		bk.bufs = append(bk.bufs, b)
		return
	}
	//lint:ignore hotpath a newly seen shape creates its bucket once; every later release of the shape takes the append above
	c.addBucket(key, b)
}

// addBucket creates the pool bucket of a newly seen buffer shape.
func (c *Context) addBucket(key poolKey, b *cudart.DevBuffer) {
	c.pool = append(c.pool, poolBucket{key: key, bufs: []*cudart.DevBuffer{b}})
}

// ReleaseAll frees every pooled buffer back to the device, keeping the
// (empty) buckets for reuse.
func (c *Context) ReleaseAll() error {
	for i := range c.pool {
		bk := &c.pool[i]
		for j, b := range bk.bufs {
			bk.bufs[j] = nil
			if err := c.rt.Free(b); err != nil {
				return err
			}
		}
		bk.bufs = bk.bufs[:0]
	}
	return nil
}

// GemmOpts is the full-reuse gemm request:
// C[MxN] = alpha·op(A)·op(B) + beta·C with op controlled by the BLAS
// transpose flags (zero values mean NoTrans). A is stored MxK (KxM when
// transposed); B is stored KxN (NxK when transposed). Its plan is the
// paper's Section IV-C schedule: square tiling, full data reuse and 3-way
// overlap.
type GemmOpts struct {
	Dtype          kernelmodel.Dtype
	TransA, TransB byte
	M, N, K        int
	Alpha, Beta    float64
	A, B, C        *Matrix
	// T is the square tiling size (required; auto-selection lives above
	// this layer in the public API).
	T int
}

// normTrans maps the zero value to NoTrans and validates the flag.
func normTrans(t byte) (byte, error) {
	switch t {
	case 0, blas.NoTrans:
		return blas.NoTrans, nil
	case blas.Trans:
		return blas.Trans, nil
	}
	return 0, fmt.Errorf("sched: bad transpose flag %q", t)
}

// validateGemm checks a level-3 invocation and returns the normalized
// transpose flags.
func (c *Context) validateGemm(opts GemmOpts) (transA, transB byte, err error) {
	if opts.M <= 0 || opts.N <= 0 || opts.K <= 0 {
		return 0, 0, fmt.Errorf("sched: non-positive gemm dims %dx%dx%d", opts.M, opts.N, opts.K)
	}
	if opts.T <= 0 {
		return 0, 0, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	dt := opts.Dtype
	if transA, err = normTrans(opts.TransA); err != nil {
		return 0, 0, err
	}
	if transB, err = normTrans(opts.TransB); err != nil {
		return 0, 0, err
	}
	if err := opts.A.Validate("A", dt, c.backed); err != nil {
		return 0, 0, err
	}
	if err := opts.B.Validate("B", dt, c.backed); err != nil {
		return 0, 0, err
	}
	if err := opts.C.Validate("C", dt, c.backed); err != nil {
		return 0, 0, err
	}
	aRows, aCols := opts.M, opts.K
	if transA == blas.Trans {
		aRows, aCols = opts.K, opts.M
	}
	bRows, bCols := opts.K, opts.N
	if transB == blas.Trans {
		bRows, bCols = opts.N, opts.K
	}
	if opts.A.Rows != aRows || opts.A.Cols != aCols ||
		opts.B.Rows != bRows || opts.B.Cols != bCols ||
		opts.C.Rows != opts.M || opts.C.Cols != opts.N {
		return 0, 0, errors.New("sched: operand shapes inconsistent with m, n, k and transposes")
	}
	return transA, transB, nil
}

// level3Call is the call of a validated level-3 request of the routine.
func level3Call(routine string, opts GemmOpts, transA, transB byte) call {
	return call{
		key: plan.Key{
			Routine: routine, Dtype: opts.Dtype, TransA: transA, TransB: transB,
			M: opts.M, N: opts.N, K: opts.K, T: opts.T,
			Alpha: math.Float64bits(opts.Alpha), Beta: math.Float64bits(opts.Beta),
			Locs: [3]model.Loc{opts.A.Loc, opts.B.Loc, opts.C.Loc}, NLocs: 3,
		},
		args: [3]plan.Arg{{Mat: opts.A}, {Mat: opts.B}, {Mat: opts.C}},
	}
}

func (opts GemmOpts) resolve(c *Context) (call, error) { return c.gemmCall(opts, 0, false) }

// gemmCall resolves a full-reuse gemm request with the BLASX request's
// knobs: a per-sub-kernel dispatch cost and compute-blocking write-backs
// (zero and false for CoCoPeLia's own schedule). The knobs are part of the
// key, so a plan replays only against requests with the same knobs.
func (c *Context) gemmCall(opts GemmOpts, dispatchS float64, blockingWB bool) (call, error) {
	transA, transB, err := c.validateGemm(opts)
	if err != nil {
		return call{}, err
	}
	cl := level3Call("gemm", opts, transA, transB)
	cl.key.DispatchS, cl.key.BlockingWB = math.Float64bits(dispatchS), blockingWB
	return cl, nil
}

// AxpyOpts is the tiled daxpy request y += alpha*x: independent 1-D
// chunks pipelined across the three streams.
type AxpyOpts struct {
	N     int
	Alpha float64
	X, Y  *Vector
	// T is the 1-D chunk length.
	T int
}

// axpyCall is the call of a validated daxpy request of the routine
// ("axpy" or "axpy-unified") at chunk length T.
func axpyCall(routine string, n, T int, alpha float64, x, y *Vector) call {
	return call{
		key: plan.Key{
			Routine: routine, Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			N: n, T: T, Alpha: math.Float64bits(alpha),
			Locs: [3]model.Loc{x.Loc, y.Loc}, NLocs: 2,
		},
		args: [3]plan.Arg{{Vec: x}, {Vec: y}},
	}
}

// validateAxpy checks the operands of a daxpy request of length n.
func (c *Context) validateAxpy(n int, x, y *Vector) error {
	if n <= 0 {
		return fmt.Errorf("sched: non-positive axpy length %d", n)
	}
	if err := x.Validate("x", c.backed); err != nil {
		return err
	}
	if err := y.Validate("y", c.backed); err != nil {
		return err
	}
	if x.N != n || y.N != n {
		return errors.New("sched: vector lengths inconsistent with n")
	}
	return nil
}

func (opts AxpyOpts) resolve(c *Context) (call, error) {
	if err := c.validateAxpy(opts.N, opts.X, opts.Y); err != nil {
		return call{}, err
	}
	if opts.T <= 0 {
		return call{}, fmt.Errorf("sched: non-positive tiling size %d", opts.T)
	}
	return axpyCall("axpy", opts.N, opts.T, opts.Alpha, opts.X, opts.Y), nil
}
