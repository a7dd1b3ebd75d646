package sched

// This file preserves the pre-plan imperative schedulers verbatim as an
// oracle: the replay-equivalence tests run each routine through the
// plan-based entry points and through these direct implementations on
// separate engines, and require byte-identical timings and payloads. Any
// divergence in stream-call order between a planner and its original
// imperative loop changes the simulation's event order and shows up here
// as a Float64bits mismatch.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/parallel"
	"cocopelia/internal/plan"
	"cocopelia/internal/sim"
)

func ceil(a, b int) int { return (a + b - 1) / b }

// refStreams returns the context's h2d, d2h and compute streams, the three
// the oracle schedules onto.
func refStreams(c *Context) (h2d, d2h, comp *cudart.Stream) {
	return c.streams[plan.StreamH2D], c.streams[plan.StreamD2H], c.streams[plan.StreamComp]
}

// The oracle's launch helpers: the checked per-routine stream calls the
// imperative schedulers were written against, one helper per call, rebuilt
// on the runtime's transfer and kernel primitives with the original kernel
// names, model durations and CPU payloads. The equivalence cases run
// float64 operands only, so the kernel payloads are float64. Each helper
// adds its copy or payload to the routine's refJob.

// refJob collects an oracle routine's functional work (its copies and
// kernel payloads) in enqueue order. The routine registers it as one job
// just before it syncs, so the work runs at Sync in the order the oracle
// issued it.
type refJob []func(*parallel.Pool) error

// add appends one unit of work.
func (j *refJob) add(f func(*parallel.Pool) error) { *j = append(*j, f) }

// register hands the collected work to rt as one in-order job.
func (j refJob) register(rt *cudart.Runtime) {
	rt.AddJob(func(pool *parallel.Pool) error {
		for _, f := range j {
			if err := f(pool); err != nil {
				return err
			}
		}
		return nil
	})
}

// refSetMatrixAsync enqueues a 2-D h2d copy of a rows x cols submatrix from
// host storage (leading dimension ldh) into dst at dstOff (leading
// dimension ldd).
func refSetMatrixAsync(w *refJob, s *cudart.Stream, rows, cols int, h64 []float64, h32 []float32, ldh int,
	dst *cudart.DevBuffer, dstOff int64, ldd int) (*cudart.Event, error) {
	return refCopy2D(w, s, machine.H2D, rows, cols, h64, h32, ldh, dst, dstOff, ldd), nil
}

// refGetMatrixAsync enqueues the d2h counterpart of refSetMatrixAsync.
func refGetMatrixAsync(w *refJob, s *cudart.Stream, rows, cols int, src *cudart.DevBuffer, srcOff int64, lds int,
	h64 []float64, h32 []float32, ldh int) (*cudart.Event, error) {
	return refCopy2D(w, s, machine.D2H, rows, cols, h64, h32, ldh, src, srcOff, lds), nil
}

// refCopy2D enqueues a 2-D copy in direction dir, moving data when both
// the device buffer and the host side carry storage. A 1-D copy of n
// elements is the rows = n, cols = 1 case.
func refCopy2D(j *refJob, s *cudart.Stream, dir machine.LinkDir, rows, cols int, h64 []float64, h32 []float32, ldh int,
	buf *cudart.DevBuffer, off int64, ldd int) *cudart.Event {
	if buf.Backed() && (h64 != nil || h32 != nil) {
		w := cudart.Window{Buf: buf, F64: h64, F32: h32, Off: off,
			Rows: int64(rows), Cols: int32(cols), Ldh: int32(ldh), Ldd: int32(ldd)}
		j.add(func(*parallel.Pool) error {
			w.Move(dir)
			return nil
		})
	}
	return s.TransferOp(dir, int64(rows)*int64(cols)*buf.Dtype().Size())
}

// refDur is the model duration of a kernel launch on the context's GPU.
func refDur(c *Context, sh kernelmodel.Shape) float64 {
	return sh.Time(&c.rt.Device().Testbed().GPU)
}

// refDispatchAsync enqueues a payload-free dispatch-overhead kernel.
func refDispatchAsync(s *cudart.Stream, duration float64) (*cudart.Event, error) {
	return s.KernelOp(cudart.NameDispatch, duration), nil
}

// refGemmAsync enqueues C = alpha*op(A)*op(B) + beta*C over device
// submatrices, with a payload when C is backed.
func refGemmAsync(c *Context, j *refJob, s *cudart.Stream, transA, transB byte, m, n, k int,
	alpha float64, a *cudart.DevBuffer, offA int64, lda int,
	b *cudart.DevBuffer, offB int64, ldb int,
	beta float64, cb *cudart.DevBuffer, offC int64, ldc int) (*cudart.Event, error) {
	if cb.Backed() {
		j.add(func(pool *parallel.Pool) error {
			return blas.GemmParallel(pool, transA, transB, m, n, k, alpha,
				a.F64()[offA:], lda, b.F64()[offB:], ldb, beta, cb.F64()[offC:], ldc)
		})
	}
	dur := refDur(c, kernelmodel.Shape{Kind: kernelmodel.KindGemm, Dtype: kernelmodel.F64, M: m, N: n, K: k})
	return s.KernelOp(cudart.NameDgemm, dur), nil
}

// refGemvAsync enqueues y = alpha*op(A)*x + beta*y over device operands.
func refGemvAsync(c *Context, j *refJob, s *cudart.Stream, trans byte, m, n int, alpha float64,
	a *cudart.DevBuffer, offA int64, lda int, x *cudart.DevBuffer, offX int64,
	beta float64, y *cudart.DevBuffer, offY int64) (*cudart.Event, error) {
	if y.Backed() {
		j.add(func(*parallel.Pool) error {
			return blas.Gemv(trans, m, n, alpha, a.F64()[offA:], lda, x.F64()[offX:], 1, beta, y.F64()[offY:], 1)
		})
	}
	dur := refDur(c, kernelmodel.Shape{Kind: kernelmodel.KindGemv, Dtype: kernelmodel.F64, M: m, N: n})
	return s.KernelOp(cudart.NameGemv, dur), nil
}

// refAxpyAsync enqueues y += alpha*x over device vectors.
func refAxpyAsync(c *Context, j *refJob, s *cudart.Stream, n int, alpha float64,
	x *cudart.DevBuffer, offX int64, y *cudart.DevBuffer, offY int64) (*cudart.Event, error) {
	if y.Backed() {
		j.add(func(*parallel.Pool) error {
			return blas.Axpy(n, alpha, x.F64()[offX:], 1, y.F64()[offY:], 1)
		})
	}
	dur := refDur(c, kernelmodel.Shape{Kind: kernelmodel.KindAxpy, Dtype: kernelmodel.F64, N: n})
	return s.KernelOp(cudart.NameDaxpy, dur), nil
}

// refTile is the oracle's devTile.
type refTile struct {
	buf   *cudart.DevBuffer
	off   int64
	ld    int
	ready *cudart.Event
	live  bool
}

// refGemm is the original GemmEnqueue loop followed by Sync/Finish, with
// BLASX's runtime costs as parameters (0 and false for CoCoPeLia).
func refGemm(c *Context, opts GemmOpts, overheadS float64, blockingWB bool) (Result, error) {
	var work refJob
	h2d, d2h, comp := refStreams(c)
	dt := opts.Dtype
	transA, err := normTrans(opts.TransA)
	if err != nil {
		return Result{}, err
	}
	transB, err := normTrans(opts.TransB)
	if err != nil {
		return Result{}, err
	}

	T := opts.T
	mt := ceil(opts.M, T)
	nt := ceil(opts.N, T)
	kt := ceil(opts.K, T)

	res := Result{T: T}
	start := c.rt.Now()

	aGridR, aGridC := mt, kt
	if transA == blas.Trans {
		aGridR, aGridC = kt, mt
	}
	bGridR, bGridC := kt, nt
	if transB == blas.Trans {
		bGridR, bGridC = nt, kt
	}
	aCache := make([]refTile, aGridR*aGridC)
	bCache := make([]refTile, bGridR*bGridC)
	cCache := make([]refTile, mt*nt)
	aCols, bCols := aGridC, bGridC
	var pooled []*cudart.DevBuffer

	fail := func(err error) (Result, error) {
		for _, b := range pooled {
			c.Release(b)
		}
		return Result{}, err
	}

	getTile := func(m *Matrix, cache []refTile, cols, ti, tj, rows, tcols int, fetch bool) (*refTile, error) {
		t := &cache[ti*cols+tj]
		if t.live {
			return t, nil
		}
		t.live = true
		if m.Loc == model.OnDevice {
			t.buf = m.Dev
			t.off = int64(ti*T) + int64(tj*T)*int64(m.DevLd)
			t.ld = m.DevLd
			t.ready = cudart.DoneEvent()
			return t, nil
		}
		buf, err := c.Acquire(dt, int64(rows)*int64(tcols))
		if err != nil {
			return nil, err
		}
		pooled = append(pooled, buf)
		t.buf, t.off, t.ld = buf, 0, rows
		if fetch {
			h64, h32 := m.HostSlices(ti*T, tj*T)
			ev, err := refSetMatrixAsync(&work, h2d, rows, tcols, h64, h32, m.HostLd, buf, 0, rows)
			if err != nil {
				return nil, err
			}
			t.ready = ev
			res.BytesH2D += int64(rows) * int64(tcols) * dt.Size()
		} else {
			t.ready = cudart.DoneEvent()
		}
		return t, nil
	}

	fetchC := opts.Beta != 0

	for tj := 0; tj < nt; tj++ {
		for ti := 0; ti < mt; ti++ {
			rows := min(T, opts.M-ti*T)
			cols := min(T, opts.N-tj*T)
			cTile, err := getTile(opts.C, cCache, nt, ti, tj, rows, cols, fetchC)
			if err != nil {
				return fail(err)
			}
			for tk := 0; tk < kt; tk++ {
				inner := min(T, opts.K-tk*T)
				ai, aj, ar, ac := ti, tk, rows, inner
				if transA == blas.Trans {
					ai, aj, ar, ac = tk, ti, inner, rows
				}
				aTile, err := getTile(opts.A, aCache, aCols, ai, aj, ar, ac, true)
				if err != nil {
					return fail(err)
				}
				bi, bj, br, bc := tk, tj, inner, cols
				if transB == blas.Trans {
					bi, bj, br, bc = tj, tk, cols, inner
				}
				bTile, err := getTile(opts.B, bCache, bCols, bi, bj, br, bc, true)
				if err != nil {
					return fail(err)
				}
				comp.WaitEvent(aTile.ready)
				comp.WaitEvent(bTile.ready)
				beta := 1.0
				if tk == 0 {
					comp.WaitEvent(cTile.ready)
					beta = opts.Beta
					if !fetchC {
						beta = 0
					}
				}
				if overheadS > 0 {
					if _, err := refDispatchAsync(comp, overheadS); err != nil {
						return fail(err)
					}
				}
				if _, err := refGemmAsync(c, &work, comp, transA, transB,
					rows, cols, inner, opts.Alpha,
					aTile.buf, aTile.off, aTile.ld,
					bTile.buf, bTile.off, bTile.ld,
					beta, cTile.buf, cTile.off, cTile.ld); err != nil {
					return fail(err)
				}
				res.Subkernels++
			}
			if opts.C.Loc == model.OnHost {
				d2h.WaitEvent(comp.Record())
				h64, h32 := opts.C.HostSlices(ti*T, tj*T)
				if _, err := refGetMatrixAsync(&work, d2h, rows, cols,
					cTile.buf, cTile.off, cTile.ld, h64, h32, opts.C.HostLd); err != nil {
					return fail(err)
				}
				res.BytesD2H += int64(rows) * int64(cols) * dt.Size()
				if blockingWB {
					comp.WaitEvent(d2h.Record())
				}
			}
		}
	}

	work.register(c.rt)
	end, err := c.rt.Sync()
	for _, b := range pooled {
		c.Release(b)
	}
	if err != nil {
		return Result{}, err
	}
	res.Seconds = end - start
	return res, nil
}

// refSlotGroup is the oracle's no-reuse staging set.
type refSlotGroup struct {
	a, b, c       *cudart.DevBuffer
	lastKernel    *cudart.Event
	lastWriteback *cudart.Event
}

// refGemmNoReuse is the original stateless-sub-kernel loop.
func refGemmNoReuse(c *Context, opts GemmOpts) (Result, error) {
	var work refJob
	h2d, d2h, comp := refStreams(c)
	dt := opts.Dtype
	T := opts.T
	mt := ceil(opts.M, T)
	nt := ceil(opts.N, T)
	kt := ceil(opts.K, T)
	res := Result{T: T}
	start := c.rt.Now()

	var pooled []*cudart.DevBuffer
	fail := func(err error) (Result, error) {
		for _, buf := range pooled {
			c.Release(buf)
		}
		return Result{}, err
	}
	tileA := int64(min(T, opts.M)) * int64(min(T, opts.K))
	tileB := int64(min(T, opts.K)) * int64(min(T, opts.N))
	tileC := int64(min(T, opts.M)) * int64(min(T, opts.N))
	var groupBytes int64
	if opts.A.Loc == model.OnHost {
		groupBytes += tileA * dt.Size()
	}
	if opts.B.Loc == model.OnHost {
		groupBytes += tileB * dt.Size()
	}
	if opts.C.Loc == model.OnHost {
		groupBytes += tileC * dt.Size()
	}
	nSlots := 8
	if groupBytes > 0 {
		free := c.rt.Device().Testbed().GPU.MemBytes - c.rt.Device().MemUsed()
		if byMem := int(free / (groupBytes + groupBytes/8)); byMem < nSlots {
			nSlots = byMem
		}
		if nSlots < 2 {
			nSlots = 2
		}
	}
	slots := make([]refSlotGroup, nSlots)
	for i := range slots {
		g := &slots[i]
		*g = refSlotGroup{lastKernel: cudart.DoneEvent(), lastWriteback: cudart.DoneEvent()}
		var err error
		if opts.A.Loc == model.OnHost {
			if g.a, err = c.Acquire(dt, tileA); err != nil {
				return fail(err)
			}
			pooled = append(pooled, g.a)
		}
		if opts.B.Loc == model.OnHost {
			if g.b, err = c.Acquire(dt, tileB); err != nil {
				return fail(err)
			}
			pooled = append(pooled, g.b)
		}
		if opts.C.Loc == model.OnHost {
			if g.c, err = c.Acquire(dt, tileC); err != nil {
				return fail(err)
			}
			pooled = append(pooled, g.c)
		}
	}

	writebackOf := make([]*cudart.Event, mt*nt)

	idx := 0
	for tk := 0; tk < kt; tk++ {
		inner := min(T, opts.K-tk*T)
		for tj := 0; tj < nt; tj++ {
			for ti := 0; ti < mt; ti++ {
				rows := min(T, opts.M-ti*T)
				cols := min(T, opts.N-tj*T)
				g := &slots[idx%nSlots]
				idx++
				h2d.WaitEvent(g.lastKernel)
				h2d.WaitEvent(g.lastWriteback)
				// fetched reports whether this step enqueued an h2d copy, which
				// carries the slot-reuse waits above.
				fetched := opts.A.Loc == model.OnHost || opts.B.Loc == model.OnHost

				aBuf, aOff, aLd := opts.A.Dev, int64(ti*T)+int64(tk*T)*int64(opts.A.DevLd), opts.A.DevLd
				if opts.A.Loc == model.OnHost {
					h64, h32 := opts.A.HostSlices(ti*T, tk*T)
					if _, err := refSetMatrixAsync(&work, h2d, rows, inner, h64, h32, opts.A.HostLd, g.a, 0, rows); err != nil {
						return fail(err)
					}
					res.BytesH2D += int64(rows) * int64(inner) * dt.Size()
					aBuf, aOff, aLd = g.a, 0, rows
				}
				bBuf, bOff, bLd := opts.B.Dev, int64(tk*T)+int64(tj*T)*int64(opts.B.DevLd), opts.B.DevLd
				if opts.B.Loc == model.OnHost {
					h64, h32 := opts.B.HostSlices(tk*T, tj*T)
					if _, err := refSetMatrixAsync(&work, h2d, inner, cols, h64, h32, opts.B.HostLd, g.b, 0, inner); err != nil {
						return fail(err)
					}
					res.BytesH2D += int64(inner) * int64(cols) * dt.Size()
					bBuf, bOff, bLd = g.b, 0, inner
				}
				beta := 1.0
				cBuf, cOff, cLd := opts.C.Dev, int64(ti*T)+int64(tj*T)*int64(opts.C.DevLd), opts.C.DevLd
				if opts.C.Loc == model.OnHost {
					cBuf, cOff, cLd = g.c, 0, rows
					fetch := tk > 0 || opts.Beta != 0
					if fetch {
						if wb := writebackOf[ti*nt+tj]; wb != nil {
							h2d.WaitEvent(wb)
						}
						h64, h32 := opts.C.HostSlices(ti*T, tj*T)
						if _, err := refSetMatrixAsync(&work, h2d, rows, cols, h64, h32, opts.C.HostLd, g.c, 0, rows); err != nil {
							return fail(err)
						}
						res.BytesH2D += int64(rows) * int64(cols) * dt.Size()
						fetched = true
						if tk == 0 {
							beta = opts.Beta
						}
					} else {
						beta = 0
					}
				} else if tk == 0 {
					beta = opts.Beta
				}

				comp.WaitEvent(h2d.Record())
				if opts.C.Loc == model.OnHost && !fetched {
					// Nothing was fetched (A and B on the device, C not
					// read), so no copy waited for the group's previous
					// write-back: the kernel must, before it overwrites the
					// C slot that write-back reads.
					comp.WaitEvent(g.lastWriteback)
				}
				if _, err := refGemmAsync(c, &work, comp, blas.NoTrans, blas.NoTrans,
					rows, cols, inner, opts.Alpha,
					aBuf, aOff, aLd, bBuf, bOff, bLd,
					beta, cBuf, cOff, cLd); err != nil {
					return fail(err)
				}
				res.Subkernels++
				g.lastKernel = comp.Record()

				if opts.C.Loc == model.OnHost {
					d2h.WaitEvent(g.lastKernel)
					h64, h32 := opts.C.HostSlices(ti*T, tj*T)
					if _, err := refGetMatrixAsync(&work, d2h, rows, cols, cBuf, cOff, cLd, h64, h32, opts.C.HostLd); err != nil {
						return fail(err)
					}
					res.BytesD2H += int64(rows) * int64(cols) * dt.Size()
					g.lastWriteback = d2h.Record()
					writebackOf[ti*nt+tj] = g.lastWriteback
				}
			}
		}
	}

	work.register(c.rt)
	end, err := c.rt.Sync()
	for _, buf := range pooled {
		c.Release(buf)
	}
	if err != nil {
		return Result{}, err
	}
	res.Seconds = end - start
	return res, nil
}

// refVecChunk is the oracle's staged x chunk.
type refVecChunk struct {
	buf   *cudart.DevBuffer
	off   int64
	ready *cudart.Event
}

// refGemv is the original level-2 loop.
func refGemv(c *Context, opts GemvOpts) (Result, error) {
	var work refJob
	h2d, d2h, comp := refStreams(c)
	T := opts.T
	mt := ceil(opts.M, T)
	nt := ceil(opts.N, T)
	res := Result{T: T}
	start := c.rt.Now()
	var pooled []*cudart.DevBuffer
	fail := func(err error) (Result, error) {
		for _, b := range pooled {
			c.Release(b)
		}
		return Result{}, err
	}

	xChunks := make([]refVecChunk, nt)
	getX := func(tj, n int) (*refVecChunk, error) {
		ch := &xChunks[tj]
		if ch.ready != nil {
			return ch, nil
		}
		if opts.X.Loc == model.OnDevice {
			*ch = refVecChunk{buf: opts.X.Dev, off: int64(tj * T), ready: cudart.DoneEvent()}
			return ch, nil
		}
		buf, err := c.Acquire(kernelmodel.F64, int64(n))
		if err != nil {
			return nil, err
		}
		pooled = append(pooled, buf)
		var host []float64
		if opts.X.HostF64 != nil {
			host = opts.X.HostF64[tj*T:]
		}
		ev, err := refSetMatrixAsync(&work, h2d, n, 1, host, nil, n, buf, 0, n)
		if err != nil {
			return nil, err
		}
		res.BytesH2D += int64(n) * 8
		*ch = refVecChunk{buf: buf, off: 0, ready: ev}
		return ch, nil
	}

	for ti := 0; ti < mt; ti++ {
		rows := min(T, opts.M-ti*T)
		var yBuf *cudart.DevBuffer
		var yOff int64
		yReady := cudart.DoneEvent()
		if opts.Y.Loc == model.OnDevice {
			yBuf, yOff = opts.Y.Dev, int64(ti*T)
		} else {
			buf, err := c.Acquire(kernelmodel.F64, int64(rows))
			if err != nil {
				return fail(err)
			}
			pooled = append(pooled, buf)
			yBuf, yOff = buf, 0
			if opts.Beta != 0 {
				var host []float64
				if opts.Y.HostF64 != nil {
					host = opts.Y.HostF64[ti*T:]
				}
				ev, err := refSetMatrixAsync(&work, h2d, rows, 1, host, nil, rows, buf, 0, rows)
				if err != nil {
					return fail(err)
				}
				res.BytesH2D += int64(rows) * 8
				yReady = ev
			}
		}

		for tj := 0; tj < nt; tj++ {
			cols := min(T, opts.N-tj*T)
			xc, err := getX(tj, cols)
			if err != nil {
				return fail(err)
			}
			aBuf, aOff, aLd := opts.A.Dev, int64(0), opts.A.DevLd
			if opts.A.Loc == model.OnHost {
				buf, err := c.Acquire(kernelmodel.F64, int64(rows)*int64(cols))
				if err != nil {
					return fail(err)
				}
				pooled = append(pooled, buf)
				h64, h32 := opts.A.HostSlices(ti*T, tj*T)
				ev, err := refSetMatrixAsync(&work, h2d, rows, cols, h64, h32, opts.A.HostLd, buf, 0, rows)
				if err != nil {
					return fail(err)
				}
				res.BytesH2D += int64(rows) * int64(cols) * 8
				comp.WaitEvent(ev)
				aBuf, aOff, aLd = buf, 0, rows
			} else {
				aOff = int64(ti*T) + int64(tj*T)*int64(opts.A.DevLd)
			}

			comp.WaitEvent(xc.ready)
			beta := 1.0
			if tj == 0 {
				comp.WaitEvent(yReady)
				beta = opts.Beta
				if opts.Y.Loc == model.OnHost && opts.Beta == 0 {
					beta = 0
				}
			}
			if _, err := refGemvAsync(c, &work, comp, blas.NoTrans, rows, cols, opts.Alpha,
				aBuf, aOff, aLd, xc.buf, xc.off, beta, yBuf, yOff); err != nil {
				return fail(err)
			}
			res.Subkernels++
		}

		if opts.Y.Loc == model.OnHost {
			d2h.WaitEvent(comp.Record())
			var host []float64
			if opts.Y.HostF64 != nil {
				host = opts.Y.HostF64[ti*T:]
			}
			if _, err := refGetMatrixAsync(&work, d2h, rows, 1, yBuf, yOff, rows, host, nil, rows); err != nil {
				return fail(err)
			}
			res.BytesD2H += int64(rows) * 8
		}
	}

	work.register(c.rt)
	end, err := c.rt.Sync()
	for _, b := range pooled {
		c.Release(b)
	}
	if err != nil {
		return Result{}, err
	}
	res.Seconds = end - start
	return res, nil
}

// refAxpy is the original level-1 loop.
func refAxpy(c *Context, opts AxpyOpts) (Result, error) {
	var work refJob
	h2d, d2h, comp := refStreams(c)
	res := Result{T: opts.T}
	start := c.rt.Now()
	var pooled []*cudart.DevBuffer

	fail := func(err error) (Result, error) {
		for _, b := range pooled {
			c.Release(b)
		}
		return Result{}, err
	}

	chunks := ceil(opts.N, opts.T)
	for ci := 0; ci < chunks; ci++ {
		off := ci * opts.T
		n := min(opts.T, opts.N-off)

		var xBuf *cudart.DevBuffer
		var xOff int64
		xReady := cudart.DoneEvent()
		if opts.X.Loc == model.OnDevice {
			xBuf, xOff = opts.X.Dev, int64(off)
		} else {
			b, err := c.Acquire(kernelmodel.F64, int64(n))
			if err != nil {
				return fail(err)
			}
			pooled = append(pooled, b)
			xBuf, xOff = b, 0
			var host []float64
			if opts.X.HostF64 != nil {
				host = opts.X.HostF64[off:]
			}
			ev, err := refSetMatrixAsync(&work, h2d, n, 1, host, nil, n, b, 0, n)
			if err != nil {
				return fail(err)
			}
			xReady = ev
			res.BytesH2D += int64(n) * 8
		}

		var yBuf *cudart.DevBuffer
		var yOff int64
		yReady := cudart.DoneEvent()
		if opts.Y.Loc == model.OnDevice {
			yBuf, yOff = opts.Y.Dev, int64(off)
		} else {
			b, err := c.Acquire(kernelmodel.F64, int64(n))
			if err != nil {
				return fail(err)
			}
			pooled = append(pooled, b)
			yBuf, yOff = b, 0
			var host []float64
			if opts.Y.HostF64 != nil {
				host = opts.Y.HostF64[off:]
			}
			ev, err := refSetMatrixAsync(&work, h2d, n, 1, host, nil, n, b, 0, n)
			if err != nil {
				return fail(err)
			}
			yReady = ev
			res.BytesH2D += int64(n) * 8
		}

		comp.WaitEvent(xReady)
		comp.WaitEvent(yReady)
		if _, err := refAxpyAsync(c, &work, comp, n, opts.Alpha, xBuf, xOff, yBuf, yOff); err != nil {
			return fail(err)
		}
		res.Subkernels++

		if opts.Y.Loc == model.OnHost {
			d2h.WaitEvent(comp.Record())
			var host []float64
			if opts.Y.HostF64 != nil {
				host = opts.Y.HostF64[off:]
			}
			if _, err := refGetMatrixAsync(&work, d2h, n, 1, yBuf, yOff, n, host, nil, n); err != nil {
				return fail(err)
			}
			res.BytesD2H += int64(n) * 8
		}
	}

	work.register(c.rt)
	end, err := c.rt.Sync()
	for _, b := range pooled {
		c.Release(b)
	}
	if err != nil {
		return Result{}, err
	}
	res.Seconds = end - start
	return res, nil
}

// equivCase is one replay-equivalence scenario: build operands on a fresh
// noisy device and run one routine, returning the result and the final
// host-visible output payload.
type equivCase struct {
	name string
	run  func(t *testing.T, c *Context, direct bool) (Result, []float64)
}

// equivCtx builds a fresh simulated device with NOISE enabled (seeded), so
// timing equivalence is tested against the hardest clock, plus a payload
// worker pool of the given size.
func equivCtx(workers int) *Context {
	eng := sim.New()
	dev := device.New(eng, machine.TestbedI(), 7, false)
	rt := cudart.New(dev)
	if workers > 1 {
		rt.SetPayloadPool(parallel.NewPool(workers))
	}
	return NewContext(rt, true)
}

// equivMat builds a matrix operand at loc from host data (copied, so the
// two runs never share storage).
func equivMat(t *testing.T, c *Context, rows, cols int, host []float64, loc model.Loc) *Matrix {
	t.Helper()
	cp := append([]float64(nil), host...)
	if loc == model.OnHost {
		return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostF64: cp, HostLd: rows}
	}
	return deviceMatrix(t, c, rows, cols, cp)
}

// equivVec builds a vector operand at loc.
func equivVec(t *testing.T, c *Context, n int, host []float64, loc model.Loc) *Vector {
	t.Helper()
	cp := append([]float64(nil), host...)
	if loc == model.OnHost {
		return &Vector{N: n, Loc: model.OnHost, HostF64: cp}
	}
	buf, err := c.rt.Malloc(kernelmodel.F64, int64(n), true)
	if err != nil {
		t.Fatal(err)
	}
	s := c.rt.NewStream()
	if _, err := s.MemcpyH2DAsync(buf, 0, cp, nil, int64(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		t.Fatal(err)
	}
	return &Vector{N: n, Loc: model.OnDevice, Dev: buf}
}

// readback copies a device matrix's contents to the host.
func readback(t *testing.T, c *Context, buf *cudart.DevBuffer, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	s := c.rt.NewStream()
	if _, err := s.MemcpyD2HAsync(out, nil, buf, 0, int64(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		t.Fatal(err)
	}
	return out
}

// output returns the host-visible output payload of a matrix operand.
func output(t *testing.T, c *Context, m *Matrix) []float64 {
	if m.Loc == model.OnHost {
		return m.HostF64
	}
	return readback(t, c, m.Dev, m.Rows*m.Cols)
}

// outputVec returns the host-visible output payload of a vector operand.
func outputVec(t *testing.T, c *Context, v *Vector) []float64 {
	if v.Loc == model.OnHost {
		return v.HostF64
	}
	return readback(t, c, v.Dev, v.N)
}

// gemmEquivCase builds one gemm scenario (shared by the reuse and no-reuse
// suites via the runner argument).
func gemmEquivCase(name string, m, n, k, T int, transA, transB byte, alpha, beta float64,
	locs [3]model.Loc,
	planned func(*Context, GemmOpts) (Result, error),
	direct func(*Context, GemmOpts) (Result, error)) equivCase {
	return equivCase{name: name, run: func(t *testing.T, c *Context, useDirect bool) (Result, []float64) {
		t.Helper()
		rng := rand.New(rand.NewSource(int64(m + 31*n + 7*k)))
		ar, ac := m, k
		if transA == blas.Trans {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB == blas.Trans {
			br, bc = n, k
		}
		A := equivMat(t, c, ar, ac, randMat(rng, ar, ac), locs[0])
		B := equivMat(t, c, br, bc, randMat(rng, br, bc), locs[1])
		C := equivMat(t, c, m, n, randMat(rng, m, n), locs[2])
		opts := GemmOpts{Dtype: kernelmodel.F64, TransA: transA, TransB: transB,
			M: m, N: n, K: k, Alpha: alpha, Beta: beta, A: A, B: B, C: C, T: T}
		f := planned
		if useDirect {
			f = direct
		}
		res, err := f(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, output(t, c, C)
	}}
}

// equivCases enumerates the replay-equivalence scenarios across all four
// routines: location combinations, ragged shapes, transposes, beta = 0 and
// the BLASX request's runtime costs (dispatch overhead, blocking
// write-back).
func equivCases() []equivCase {
	H, D := model.OnHost, model.OnDevice
	gemm := func(c *Context, o GemmOpts) (Result, error) { return c.Run(o) }
	refGemmPlain := func(c *Context, o GemmOpts) (Result, error) { return refGemm(c, o, 0, false) }
	blasx := func(c *Context, o GemmOpts) (Result, error) { return c.Run(GemmBlasxOpts(o)) }
	refBlasx := func(c *Context, o GemmOpts) (Result, error) { return refGemm(c, o, plan.BlasxDispatchS, true) }
	noreuse := func(c *Context, o GemmOpts) (Result, error) { return c.Run(GemmNoReuseOpts(o)) }
	cases := []equivCase{
		gemmEquivCase("gemm/host-ragged", 130, 70, 95, 64, blas.NoTrans, blas.NoTrans, 1.25, 0.5, [3]model.Loc{H, H, H}, gemm, refGemmPlain),
		gemmEquivCase("gemm/beta0", 128, 64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0, [3]model.Loc{H, H, H}, gemm, refGemmPlain),
		gemmEquivCase("gemm/trans", 90, 110, 70, 64, blas.Trans, blas.Trans, 1, 1, [3]model.Loc{H, H, H}, gemm, refGemmPlain),
		gemmEquivCase("gemm/devA-devC", 128, 128, 128, 64, blas.NoTrans, blas.NoTrans, 1, 1, [3]model.Loc{D, H, D}, gemm, refGemmPlain),
		gemmEquivCase("gemm/blasx-knobs", 130, 70, 95, 64, blas.NoTrans, blas.NoTrans, 1, 1, [3]model.Loc{H, H, H}, blasx, refBlasx),
		gemmEquivCase("noreuse/host-ragged", 130, 70, 95, 64, blas.NoTrans, blas.NoTrans, 1.25, 0.5, [3]model.Loc{H, H, H}, noreuse, refGemmNoReuse),
		gemmEquivCase("noreuse/beta0", 128, 64, 64, 64, blas.NoTrans, blas.NoTrans, 1, 0, [3]model.Loc{H, H, H}, noreuse, refGemmNoReuse),
		gemmEquivCase("noreuse/device", 128, 128, 128, 64, blas.NoTrans, blas.NoTrans, 1, 1, [3]model.Loc{D, D, D}, noreuse, refGemmNoReuse),
		gemmEquivCase("noreuse/ddh-beta0", 507, 384, 16, 128, blas.NoTrans, blas.NoTrans, 1, 0, [3]model.Loc{D, D, H}, noreuse, refGemmNoReuse),
		{name: "gemv/host-ragged", run: func(t *testing.T, c *Context, direct bool) (Result, []float64) {
			rng := rand.New(rand.NewSource(17))
			m, n := 190, 140
			A := equivMat(t, c, m, n, randMat(rng, m, n), model.OnHost)
			X := equivVec(t, c, n, randMat(rng, n, 1), model.OnHost)
			Y := equivVec(t, c, m, randMat(rng, m, 1), model.OnHost)
			opts := GemvOpts{M: m, N: n, Alpha: 1.5, Beta: 0.25, A: A, X: X, Y: Y, T: 64}
			f := runReq[GemvOpts]
			if direct {
				f = refGemv
			}
			res, err := f(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, outputVec(t, c, Y)
		}},
		{name: "gemv/devX-beta0", run: func(t *testing.T, c *Context, direct bool) (Result, []float64) {
			rng := rand.New(rand.NewSource(19))
			m, n := 150, 130
			A := equivMat(t, c, m, n, randMat(rng, m, n), model.OnHost)
			X := equivVec(t, c, n, randMat(rng, n, 1), model.OnDevice)
			Y := equivVec(t, c, m, randMat(rng, m, 1), model.OnHost)
			opts := GemvOpts{M: m, N: n, Alpha: 1, Beta: 0, A: A, X: X, Y: Y, T: 64}
			f := runReq[GemvOpts]
			if direct {
				f = refGemv
			}
			res, err := f(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, outputVec(t, c, Y)
		}},
		{name: "axpy/host-ragged", run: func(t *testing.T, c *Context, direct bool) (Result, []float64) {
			rng := rand.New(rand.NewSource(23))
			n := 1000
			X := equivVec(t, c, n, randMat(rng, n, 1), model.OnHost)
			Y := equivVec(t, c, n, randMat(rng, n, 1), model.OnHost)
			opts := AxpyOpts{N: n, Alpha: 1.1, X: X, Y: Y, T: 384}
			f := runReq[AxpyOpts]
			if direct {
				f = refAxpy
			}
			res, err := f(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, outputVec(t, c, Y)
		}},
		{name: "axpy/devX", run: func(t *testing.T, c *Context, direct bool) (Result, []float64) {
			rng := rand.New(rand.NewSource(29))
			n := 777
			X := equivVec(t, c, n, randMat(rng, n, 1), model.OnDevice)
			Y := equivVec(t, c, n, randMat(rng, n, 1), model.OnHost)
			opts := AxpyOpts{N: n, Alpha: 0.75, X: X, Y: Y, T: 256}
			f := runReq[AxpyOpts]
			if direct {
				f = refAxpy
			}
			res, err := f(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, outputVec(t, c, Y)
		}},
	}
	return cases
}

// TestPlanReplayEquivalence runs every scenario through the plan-based
// path and the preserved imperative oracle on separate engines and demands
// byte-identical timings, annotations, output payloads and fired kernels
// and transfers (a missing wait can move a kernel without moving the end
// time), at payload worker counts 1, 2 and 8.
func TestPlanReplayEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range equivCases() {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var trPlan, trRef replayTrace
				cPlan := equivCtx(workers)
				observe(cPlan, &trPlan)
				resPlan, outPlan := tc.run(t, cPlan, false)
				cRef := equivCtx(workers)
				observe(cRef, &trRef)
				resRef, outRef := tc.run(t, cRef, true)

				if math.Float64bits(resPlan.Seconds) != math.Float64bits(resRef.Seconds) {
					t.Errorf("Seconds diverged: plan %v (%x) vs direct %v (%x)",
						resPlan.Seconds, math.Float64bits(resPlan.Seconds),
						resRef.Seconds, math.Float64bits(resRef.Seconds))
				}
				if resPlan.Subkernels != resRef.Subkernels ||
					resPlan.BytesH2D != resRef.BytesH2D ||
					resPlan.BytesD2H != resRef.BytesD2H {
					t.Errorf("annotations diverged: plan %+v vs direct %+v", resPlan, resRef)
				}
				checkSameEvents(t, "plan vs direct", trPlan.events, trRef.events)
				if len(outPlan) != len(outRef) {
					t.Fatalf("payload length diverged: %d vs %d", len(outPlan), len(outRef))
				}
				for i := range outPlan {
					if math.Float64bits(outPlan[i]) != math.Float64bits(outRef[i]) {
						t.Fatalf("payload diverged at %d: %x vs %x",
							i, math.Float64bits(outPlan[i]), math.Float64bits(outRef[i]))
					}
				}
			})
		}
	}
}

// TestPlanReplayReuse replays one memoized plan twice on the same context
// and checks the second run is byte-identical to a freshly planned one on
// an identically-prepared context (the campaign runner's reuse pattern).
func TestPlanReplayReuse(t *testing.T) {
	build := func() (*Context, GemmOpts) {
		c := equivCtx(1)
		rng := rand.New(rand.NewSource(5))
		m, n, k := 130, 70, 95
		A := equivMat(t, c, m, k, randMat(rng, m, k), model.OnHost)
		B := equivMat(t, c, k, n, randMat(rng, k, n), model.OnHost)
		C := equivMat(t, c, m, n, randMat(rng, m, n), model.OnHost)
		return c, GemmOpts{Dtype: kernelmodel.F64, M: m, N: n, K: k,
			Alpha: 1, Beta: 1, A: A, B: B, C: C, T: 64}
	}

	cA, optsA := build()
	p, err := cA.Plan(optsA)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runWith(cA, p, optsA)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runWith(cA, p, optsA)
	if err != nil {
		t.Fatal(err)
	}

	cB, optsB := build()
	s1, err := cB.Run(optsB)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cB.Run(optsB)
	if err != nil {
		t.Fatal(err)
	}

	for i, pair := range [][2]Result{{r1, s1}, {r2, s2}} {
		if math.Float64bits(pair[0].Seconds) != math.Float64bits(pair[1].Seconds) {
			t.Errorf("call %d: replayed %v vs direct %v", i+1, pair[0].Seconds, pair[1].Seconds)
		}
	}
	for i := range optsA.C.HostF64 {
		if math.Float64bits(optsA.C.HostF64[i]) != math.Float64bits(optsB.C.HostF64[i]) {
			t.Fatalf("payload diverged at %d", i)
		}
	}

	// A plan built for one shape must refuse other invocations.
	bad := optsA
	bad.N = 80
	bad.B = equivMat(t, cA, 95, 80, randMat(rand.New(rand.NewSource(6)), 95, 80), model.OnHost)
	bad.C = equivMat(t, cA, 130, 80, randMat(rand.New(rand.NewSource(7)), 130, 80), model.OnHost)
	if _, err := runWith(cA, p, bad); err == nil {
		t.Fatal("GemmWith accepted a mismatched plan")
	}
}
