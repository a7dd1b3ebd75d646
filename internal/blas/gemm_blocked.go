package blas

import "cocopelia/internal/parallel"

// This file is the driver of the blocked GEMM engine: three-level cache
// blocking (NC column panels x KC depth panels x MC row blocks) over the
// packed micro-panels of pack.go, with the innermost work done by the
// micro-kernel registry.go selects for the call's element type (the
// portable Go kernel, or the AVX/AVX-512 one for float64).
//
// Determinism: C columns are independent — element (i,j) is touched only
// by the beta pass over column j and by micro-kernels in column j's panel
// — so partitioning columns across workers cannot change any element's
// accumulation order. Within one column the order is fixed by the pc/k
// loops: terms arrive in increasing k, each the oracle's one rounded
// multiply and one rounded add, so results are bitwise identical to
// GemmNaive at any worker count; TestGemmBlockedBitwise* pins this.

// checkGemm validates a Gemm call's flags, dimensions and operand shapes.
func checkGemm[F Float](transA, transB byte, m, n, k int, a []F, lda int, b []F, ldb int, c []F, ldc int) error {
	if err := checkTrans("gemm(A)", transA); err != nil {
		return err
	}
	if err := checkTrans("gemm(B)", transB); err != nil {
		return err
	}
	if m < 0 || n < 0 || k < 0 {
		return badShape("gemm: negative dimensions m=%d n=%d k=%d", m, n, k)
	}
	aRows, aCols := m, k
	if transA == Trans {
		aRows, aCols = k, m
	}
	bRows, bCols := k, n
	if transB == Trans {
		bRows, bCols = n, k
	}
	if err := checkMatrix("A", aRows, aCols, lda, a); err != nil {
		return err
	}
	if err := checkMatrix("B", bRows, bCols, ldb, b); err != nil {
		return err
	}
	return checkMatrix("C", m, n, ldc, c)
}

// scaleColumns applies the beta pass to C columns [jLo, jHi), exactly as
// the oracle does: zero-fill for beta == 0 (so NaNs are overwritten, per
// BLAS), no-op for beta == 1, one rounded multiply otherwise.
func scaleColumns[F Float](m, jLo, jHi int, beta F, c []F, ldc int) {
	for j := jLo; j < jHi; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else if beta != 1 {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m x k,
// op(B) is k x n and C is m x n, all column-major, using the blocked
// packed engine on the calling goroutine. Results are bitwise identical
// to the GemmNaive oracle. It is GemmParallel with a nil pool.
func Gemm[F Float](transA, transB byte, m, n, k int, alpha F, a []F, lda int, b []F, ldb int, beta F, c []F, ldc int) error {
	return GemmParallel(nil, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// GemmParallel is Gemm fanned out over the pool's workers, each owning a
// disjoint range of C column panels. The fixed blocking makes every C
// element's accumulation order independent of the partition, so the result
// is bitwise identical at any worker count (a nil pool runs inline) and
// to the GemmNaive oracle.
func GemmParallel[F Float](p *parallel.Pool, transA, transB byte, m, n, k int, alpha F, a []F, lda int, b []F, ldb int, beta F, c []F, ldc int) error {
	if err := checkGemm(transA, transB, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	sel := kernelFor[F]()
	if m == 0 || n == 0 {
		return nil
	}
	accumulate := alpha != 0 && k > 0
	small := int64(m)*int64(n)*int64(k) <= gemmSmallCutoff
	workers := p.Workers()
	if panels := (n + sel.nr - 1) / sel.nr; workers > panels {
		workers = panels
	}
	if workers <= 1 || !accumulate || small {
		scaleColumns(m, 0, n, beta, c, ldc)
		if !accumulate {
			return nil
		}
		if small {
			gemmRefAccum(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
			return nil
		}
		gemmColumns(sel, transA, transB, m, 0, n, k, alpha, a, lda, b, ldb, c, ldc)
		return nil
	}
	// One contiguous, NR-aligned column range per worker. The split only
	// chooses who computes a column, never how.
	return parallel.ForEach(p, splitUnits(n, sel.nr, workers), func(_ int, r span) error {
		scaleColumns(m, r.lo, r.hi, beta, c, ldc)
		gemmColumns(sel, transA, transB, m, r.lo, r.hi, k, alpha, a, lda, b, ldb, c, ldc)
		return nil
	})
}

// span is the half-open index range [lo, hi).
type span struct{ lo, hi int }

// splitUnits splits [0, n) into at most workers contiguous spans of whole
// units of the given width (the last span may end mid-unit at n).
func splitUnits(n, unit, workers int) []span {
	per := ((n+unit-1)/unit + workers - 1) / workers * unit
	spans := make([]span, 0, workers)
	for lo := 0; lo < n; lo += per {
		spans = append(spans, span{lo, min(lo+per, n)})
	}
	return spans
}

// gemmColumns runs the blocked engine over C columns [jLo, jHi) on the
// selected kernel. The beta pass must already have run; alpha != 0 and
// k > 0.
func gemmColumns[F Float](sel kernelSel, transA, transB byte, m, jLo, jHi, k int, alpha F, a []F, lda int, b []F, ldb int, c []F, ldc int) {
	mrK, nrK := sel.mr, sel.nr
	bufs := gemmBufPool.Get().(*gemmBuffers)
	defer gemmBufPool.Put(bufs)
	apCap := roundUp(min(gemmMC, m), mrK) * min(gemmKC, k)
	bpCap := min(gemmKC, k) * roundUp(min(gemmNC, jHi-jLo), nrK)
	ap, bp := packSlices[F](bufs, apCap, bpCap)

	// Native-kernel views: kernelFor returns a native kernel only when F
	// is float64, so the casts hold. They never allocate.
	var a64, b64, c64 []float64
	kern64 := sel.f64
	if kern64 != nil {
		a64, _ = asTyped[float64](&ap)
		b64, _ = asTyped[float64](&bp)
		c64, _ = asTyped[float64](&c)
	}

	for jc := jLo; jc < jHi; jc += gemmNC {
		nc := min(gemmNC, jHi-jc)
		ncPad := roundUp(nc, nrK)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(transB, b, ldb, pc, jc, kc, nc, nrK, alpha, bp[:kc*ncPad])
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA(transA, a, lda, ic, pc, mc, kc, mrK, ap[:roundUp(mc, mrK)*kc])
				for jr := 0; jr < nc; jr += nrK {
					nr := min(nrK, nc-jr)
					cPanel := c[(ic)+(jc+jr)*ldc:]
					for ir := 0; ir < mc; ir += mrK {
						mr := min(mrK, mc-ir)
						if mr == mrK && nr == nrK {
							if kern64 != nil {
								cb := c64[(ic+ir)+(jc+jr)*ldc:]
								kern64(kc, &a64[ir*kc], &b64[jr*kc], &cb[0], ldc)
								continue
							}
							if mrK == gemmMR && nrK == gemmNR {
								microKernel4x4(kc, ap[ir*kc:], bp[jr*kc:], cPanel[ir:], ldc)
								continue
							}
						}
						microKernelTail(kc, mr, nr, mrK, nrK, ap[ir*kc:], bp[jr*kc:], cPanel[ir:], ldc)
					}
				}
			}
		}
	}
}

// gemmRefAccum is the oracle's accumulation loop (j-l-i order, one rounded
// multiply-then-add per term), shared by GemmNaive and the small-problem
// path of the engine. The beta pass must already have run.
func gemmRefAccum[F Float](transA, transB byte, m, n, k int, alpha F, a []F, lda int, b []F, ldb int, c []F, ldc int) {
	for j := 0; j < n; j++ {
		cCol := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			var blj F
			if transB == Trans {
				blj = alpha * b[j+l*ldb]
			} else {
				blj = alpha * b[l+j*ldb]
			}
			if transA == NoTrans {
				aCol := a[l*lda : l*lda+m]
				for i, av := range aCol {
					cCol[i] += av * blj
				}
			} else {
				arow := a[l:]
				for i := 0; i < m; i++ {
					cCol[i] += arow[i*lda] * blj
				}
			}
		}
	}
}

// GemmNaive is the reference j-l-i triple loop, kept as the differential
// oracle for the blocked engine: Gemm/GemmParallel must produce bitwise
// identical results to it for every input. It is also the honest baseline
// for the engine's benchmarks.
func GemmNaive[F Float](transA, transB byte, m, n, k int, alpha F, a []F, lda int, b []F, ldb int, beta F, c []F, ldc int) error {
	if err := checkGemm(transA, transB, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	scaleColumns(m, 0, n, beta, c, ldc)
	if alpha == 0 || k == 0 {
		return nil
	}
	gemmRefAccum(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
	return nil
}

// SyrkParallel is Syrk through the parallel blocked engine.
func SyrkParallel[F Float](p *parallel.Pool, trans byte, n, k int, alpha F, a []F, lda int, beta F, c []F, ldc int) error {
	if err := checkTrans("syrk", trans); err != nil {
		return err
	}
	if trans == NoTrans {
		return GemmParallel(p, NoTrans, Trans, n, n, k, alpha, a, lda, a, lda, beta, c, ldc)
	}
	return GemmParallel(p, Trans, NoTrans, n, n, k, alpha, a, lda, a, lda, beta, c, ldc)
}
