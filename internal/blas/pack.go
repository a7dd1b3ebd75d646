package blas

// Packing: the engine copies blocks of op(A) and op(B) into contiguous,
// transpose-normalized buffers before the micro-kernel runs. After packing
// the four transA/transB combinations are indistinguishable — the
// micro-kernel always streams mr-wide A micro-panels against nr-wide B
// micro-panels with unit stride — and ragged edges are zero-padded to full
// micro-panel width so only the C write-back needs tail handling. The
// panel widths mr/nr come from the selected kernel variant (registry.go):
// 4x4 for the portable and AVX kernels, 16x4 for the AVX-512 one.
//
// alpha is folded into the packed B panel: the oracle computes every term
// as op(A)[i,l] * (alpha*op(B)[l,j]), so scaling B at pack time (one
// multiply per packed value instead of one per k-loop iteration) preserves
// bitwise equality with it.

// packA copies the mc x kc block of op(A) whose top-left element is
// op(A)[ic, pc] into ap as row micro-panels: panel ir holds rows
// [ic+ir*mr, ...) in k-major order, mr values per k step, the last panel
// zero-padded to mr rows. ap must hold roundUp(mc, mr)*kc elements.
func packA[F Float](transA byte, a []F, lda int, ic, pc, mc, kc, mrK int, ap []F) {
	for ir := 0; ir < mc; ir += mrK {
		mr := min(mrK, mc-ir)
		dst := ap[ir*kc : ir*kc+mrK*kc]
		if transA == NoTrans {
			// op(A)[i,l] = a[i + l*lda]: one unit-stride column segment
			// per k step.
			for l := 0; l < kc; l++ {
				src := a[(ic+ir)+(pc+l)*lda:]
				d := dst[l*mrK : l*mrK+mrK]
				for ii := 0; ii < mr; ii++ {
					d[ii] = src[ii]
				}
				for ii := mr; ii < mrK; ii++ {
					d[ii] = 0
				}
			}
			continue
		}
		// op(A)[i,l] = a[l + i*lda]: each packed row is a unit-stride
		// stored column of A.
		for ii := 0; ii < mrK; ii++ {
			if ii >= mr {
				for l := 0; l < kc; l++ {
					dst[l*mrK+ii] = 0
				}
				continue
			}
			src := a[pc+(ic+ir+ii)*lda:]
			for l := 0; l < kc; l++ {
				dst[l*mrK+ii] = src[l]
			}
		}
	}
}

// packB copies the kc x nc block of op(B) whose top-left element is
// op(B)[pc, jc] into bp as column micro-panels scaled by alpha: panel jr
// holds columns [jc+jr*nr, ...) in k-major order, nr values per k step,
// the last panel zero-padded. bp must hold kc*roundUp(nc, nr) elements.
func packB[F Float](transB byte, b []F, ldb int, pc, jc, kc, nc, nrK int, alpha F, bp []F) {
	for jr := 0; jr < nc; jr += nrK {
		nr := min(nrK, nc-jr)
		dst := bp[jr*kc : jr*kc+nrK*kc]
		if transB == NoTrans {
			// op(B)[l,j] = b[l + j*ldb]: each packed column is a
			// unit-stride stored column of B.
			for jj := 0; jj < nrK; jj++ {
				if jj >= nr {
					for l := 0; l < kc; l++ {
						dst[l*nrK+jj] = 0
					}
					continue
				}
				src := b[pc+(jc+jr+jj)*ldb:]
				if alpha == 1 {
					for l := 0; l < kc; l++ {
						dst[l*nrK+jj] = src[l]
					}
				} else {
					for l := 0; l < kc; l++ {
						dst[l*nrK+jj] = alpha * src[l]
					}
				}
			}
			continue
		}
		// op(B)[l,j] = b[j + l*ldb]: one unit-stride row segment per k
		// step.
		for l := 0; l < kc; l++ {
			src := b[(jc+jr)+(pc+l)*ldb:]
			d := dst[l*nrK : l*nrK+nrK]
			if alpha == 1 {
				for jj := 0; jj < nr; jj++ {
					d[jj] = src[jj]
				}
			} else {
				for jj := 0; jj < nr; jj++ {
					d[jj] = alpha * src[jj]
				}
			}
			for jj := nr; jj < nrK; jj++ {
				d[jj] = 0
			}
		}
	}
}
