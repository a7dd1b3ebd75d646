package blas

// Micro-kernels: compute a gemmMR x gemmNR block of C += A~ * B~ from one
// packed A micro-panel and one packed B micro-panel (B~ already carries
// alpha). Accumulators live in registers for the whole kc loop; a register
// round-trip of a float is exact, so the per-element result is bitwise
// identical to the oracle's store-per-term loop as long as terms are added
// one at a time in k order — which is exactly what every kernel here does
// (no pairwise trees, no fused multiply-add).

// microKernel4x4 is the portable full-tile kernel: 16 scalar accumulators,
// one multiply and one ordered add per term.
func microKernel4x4[F Float](kc int, ap, bp []F, c []F, ldc int) {
	col0 := c[0*ldc : 0*ldc+4]
	col1 := c[1*ldc : 1*ldc+4]
	col2 := c[2*ldc : 2*ldc+4]
	col3 := c[3*ldc : 3*ldc+4]
	c00, c10, c20, c30 := col0[0], col0[1], col0[2], col0[3]
	c01, c11, c21, c31 := col1[0], col1[1], col1[2], col1[3]
	c02, c12, c22, c32 := col2[0], col2[1], col2[2], col2[3]
	c03, c13, c23, c33 := col3[0], col3[1], col3[2], col3[3]
	ap = ap[:4*kc]
	bp = bp[:4*kc]
	for l := 0; l < kc; l++ {
		a := ap[4*l : 4*l+4]
		b := bp[4*l : 4*l+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0 := b[0]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		b1 := b[1]
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		b2 := b[2]
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		b3 := b[3]
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
	}
	col0[0], col0[1], col0[2], col0[3] = c00, c10, c20, c30
	col1[0], col1[1], col1[2], col1[3] = c01, c11, c21, c31
	col2[0], col2[1], col2[2], col2[3] = c02, c12, c22, c32
	col3[0], col3[1], col3[2], col3[3] = c03, c13, c23, c33
}

// microKernelTail handles ragged edges: an mr x nr corner (mr <= mrK,
// nr <= nrK) read from zero-padded micro-panels whose packed widths are
// the selected kernel's mrK x nrK tile. Only the valid C elements are
// loaded and stored; padded lanes accumulate zeros into dead accumulator
// slots. Arithmetic is the same as every kernel's: one multiply, one
// ordered add per term.
func microKernelTail[F Float](kc, mr, nr, mrK, nrK int, ap, bp []F, c []F, ldc int) {
	var acc [maxMR * maxNR]F
	for jj := 0; jj < nr; jj++ {
		for ii := 0; ii < mr; ii++ {
			acc[jj*maxMR+ii] = c[ii+jj*ldc]
		}
	}
	for l := 0; l < kc; l++ {
		a := ap[mrK*l : mrK*l+mrK]
		b := bp[nrK*l : nrK*l+nrK]
		for jj := 0; jj < nr; jj++ {
			bj := b[jj]
			for ii := 0; ii < mr; ii++ {
				acc[jj*maxMR+ii] += a[ii] * bj
			}
		}
	}
	for jj := 0; jj < nr; jj++ {
		for ii := 0; ii < mr; ii++ {
			c[ii+jj*ldc] = acc[jj*maxMR+ii]
		}
	}
}
