//go:build amd64

package blas

// Native float64 micro-kernel for amd64. init installs the 16x4 AVX-512
// kernel (gemm_avx512_exact_amd64.s) where ZMM state exists, else the 4x4
// AVX kernel (gemm_amd64.s) where YMM state exists. Both are bitwise
// identical to the oracle, so the choice changes speed, never bits.
//
// Pre-AVX CPUs, other element types and edge tiles run the portable Go
// micro-kernels.

// dgemmKernel4x4AVX is the exact float64 kernel: VMULPD + ordered
// VADDPD per k step, bitwise identical to the oracle.
//
//go:noescape
func dgemmKernel4x4AVX(kc int, a, b, c *float64, ldc int)

// dgemmKernel16x4AVX512Exact is the exact float64 kernel on the 512-bit
// datapath: a 16x4 ZMM register tile, each term one VMULPD and one
// ordered VADDPD, so it is bitwise identical to the oracle.
//
//go:noescape
func dgemmKernel16x4AVX512Exact(kc int, a, b, c *float64, ldc int)

func init() {
	switch {
	case hasAVX512():
		setKernel64("avx512", 16, 4, dgemmKernel16x4AVX512Exact)
	case hasAVX():
		setKernel64("avx", 4, 4, dgemmKernel4x4AVX)
	}
}
